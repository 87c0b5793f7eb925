"""Unit tests for the fuzz query/schema generators: determinism, depth
bounds, analyzer compatibility, and coverage of the operator space."""

import random

import pytest

import repro
from repro.fuzz import FuzzConfig, QueryGenerator, case_rng, generate_case
from repro.fuzz.datagen import (
    ALL_COLUMNS,
    EMPTY_TABLE_RATE,
    PK_COLUMN,
    random_database_spec,
)
from repro.core.optimizer import strategy_applicable
from repro.fuzz.runner import _count_operators
from repro.sql.analyzer import compile_sql
from repro.strategies import make as make_strategy
from repro.engine.types import is_null
from repro.sql import parse, render_sql


class TestDeterminism:
    def test_same_seed_same_case(self):
        config = FuzzConfig(iterations=1, seed=13)
        a = generate_case(config, 5)
        b = generate_case(config, 5)
        assert a.sql == b.sql
        assert a.db_spec == b.db_spec

    def test_different_iterations_differ(self):
        config = FuzzConfig(iterations=1, seed=13)
        sqls = {generate_case(config, i).sql for i in range(10)}
        assert len(sqls) > 1

    def test_case_rng_is_stable_stream(self):
        """String seeding pins the stream: the same (seed, iteration)
        must reproduce cases across sessions and Python versions."""
        assert case_rng(4, 2).random() == case_rng(4, 2).random()
        assert case_rng(4, 2).random() != case_rng(4, 3).random()


class TestConfigValidation:
    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            FuzzConfig(max_depth=0)
        with pytest.raises(ValueError):
            FuzzConfig(max_depth=5)

    def test_null_rate_bounds(self):
        with pytest.raises(ValueError):
            FuzzConfig(null_rate=1.5)

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            FuzzConfig(iterations=-1)


class TestGeneratedQueries:
    def test_every_case_compiles(self):
        """Generated queries must stay inside the analyzer's subset."""
        config = FuzzConfig(iterations=1, seed=99, max_depth=4)
        for i in range(40):
            case = generate_case(config, i)
            db = case.db_spec.build()
            query = repro.compile_sql(case.sql, db)
            assert 1 <= query.nesting_depth <= 4

    def test_depth_respects_budget(self):
        config = FuzzConfig(iterations=1, seed=7, max_depth=2)
        for i in range(30):
            case = generate_case(config, i)
            db = case.db_spec.build()
            assert repro.compile_sql(case.sql, db).nesting_depth <= 2

    def test_operator_space_covered(self):
        """A few hundred cases must exercise all six operator families
        and both SOME and ALL quantified links."""
        config = FuzzConfig(iterations=1, seed=0)
        histogram = {}
        for i in range(300):
            _count_operators(generate_case(config, i).stmt, histogram)
        assert "exists" in histogram
        assert "not_exists" in histogram
        assert "in" in histogram
        assert "not_in" in histogram
        assert any(" some" in k for k in histogram)
        assert any(" all" in k for k in histogram)

    def test_tree_shapes_occur(self):
        config = FuzzConfig(iterations=1, seed=0, max_depth=3)
        trees = 0
        for i in range(120):
            case = generate_case(config, i)
            query = repro.compile_sql(case.sql, case.db_spec.build())
            if query.is_tree:
                trees += 1
        assert trees > 0

    def test_correlated_and_uncorrelated_occur(self):
        config = FuzzConfig(iterations=1, seed=0)
        correlated = uncorrelated = 0
        for i in range(100):
            case = generate_case(config, i)
            query = repro.compile_sql(case.sql, case.db_spec.build())
            inner = [b for b in query.blocks if b.link is not None]
            if any(b.correlations for b in inner):
                correlated += 1
            if inner and all(not b.correlations for b in inner):
                uncorrelated += 1
        assert correlated > 0 and uncorrelated > 0


class TestDatagen:
    def test_pk_sequential_not_null(self):
        spec = random_database_spec(random.Random(1))
        for table in spec.tables:
            assert [row[0] for row in table.rows] == list(range(len(table.rows)))

    def test_null_rate_one_means_all_null_values(self):
        spec = random_database_spec(random.Random(2), null_rate=1.0)
        for table in spec.tables:
            for row in table.rows:
                assert all(is_null(v) for v in row[1:])

    def test_empty_tables_appear(self):
        rng = random.Random(3)
        empties = sum(
            1
            for _ in range(60)
            for t in random_database_spec(rng).tables
            if not t.rows
        )
        # 240 tables at EMPTY_TABLE_RATE each: expect a healthy handful
        assert empties > 0
        assert EMPTY_TABLE_RATE > 0

    def test_with_rows_replaces_only_named_table(self):
        spec = random_database_spec(random.Random(4))
        smaller = spec.with_rows("t1", [])
        assert smaller.tables[1].rows == ()
        assert smaller.tables[0] == spec.tables[0]

    def test_build_creates_engine_tables(self):
        spec = random_database_spec(random.Random(5))
        db = spec.build()
        for table in spec.tables:
            assert db.has_table(table.name)
            schema = db.table(table.name).schema
            assert tuple(c.name for c in schema.columns) == ALL_COLUMNS
            assert db.table(table.name).primary_key == PK_COLUMN


    def test_value_columns_are_not_null_exactly_when_the_data_is(self):
        rng = random.Random(6)
        seen = set()
        for _ in range(20):
            spec = random_database_spec(rng)
            db = spec.build()
            for table in spec.tables:
                for i, column in enumerate(db.table(table.name).schema.columns):
                    holds_null = any(is_null(row[i]) for row in table.rows)
                    assert column.not_null == (not holds_null), (table, column)
                    seen.add((i, holds_null))
        assert seen >= {(1, True), (1, False), (2, True), (2, False)}


class TestNotNullRewritesAreReached:
    def test_aggregate_rewrite_accepts_and_agrees(self):
        """``aggregate-rewrite`` needs NOT NULL columns; seed 1's first
        300 cases must give it some, and it must match the oracle on
        every case it accepts."""
        config = FuzzConfig(iterations=300, seed=1)
        strategy = make_strategy("aggregate-rewrite")
        accepted = 0
        for i in range(300):
            case = generate_case(config, i)
            db = case.db_spec.build()
            if not strategy_applicable(strategy, compile_sql(case.sql, db), db):
                continue
            accepted += 1
            query = repro.connect(db).prepare(case.sql)
            oracle = query.execute(strategy="nested-iteration").sorted()
            got = query.execute(strategy="aggregate-rewrite").sorted()
            assert got == oracle, case.sql
        assert accepted >= 1


class TestRenderedSqlRoundTrip:
    def test_generated_sql_round_trips(self):
        """parse(render(stmt)) re-renders to the identical text — the
        corpus files depend on this being exact."""
        config = FuzzConfig(iterations=1, seed=21, max_depth=4)
        for i in range(40):
            case = generate_case(config, i)
            sql = case.sql
            assert render_sql(parse(sql)) == sql
