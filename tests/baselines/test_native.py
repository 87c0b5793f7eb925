"""Unit tests for the System A emulation: plan choices must follow the
paper's Section 5.2 narrative, and execution must match the oracle."""

import pytest

import repro
from repro.baselines.native import (
    ANTIJOIN,
    ANTIJOIN_NEGATED,
    NESTED_ITERATION,
    SEMIJOIN,
    SystemAEmulationStrategy,
)
from repro.tpch import query1, query2, query3


@pytest.fixture(scope="module")
def dbs():
    nullable = repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=5)
    )
    notnull = repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=5, price_not_null=True)
    )
    return nullable, notnull


def plan_actions(sql, db):
    strategy = SystemAEmulationStrategy()
    q = repro.compile_sql(sql, db)
    return {idx: p.action for idx, p in strategy.plan(q, db).items()}


class TestQuery1Plans:
    def test_nullable_forces_nested_iteration(self, dbs):
        """'if the NOT NULL constraint is dropped ... antijoin is not
        used' — the ALL subquery runs by nested iteration."""
        nullable, _ = dbs
        actions = plan_actions(query1("1993-01-01", "1994-01-01"), nullable)
        assert actions[2] == NESTED_ITERATION

    def test_not_null_enables_antijoin(self, dbs):
        """'with a NOT NULL constraint on l_extendedprice, System A
        directly performs an antijoin'."""
        _, notnull = dbs
        actions = plan_actions(query1("1993-01-01", "1994-01-01"), notnull)
        assert actions[2] == ANTIJOIN_NEGATED


class TestQuery2Plans:
    def test_q2a_semijoin_antijoin(self, dbs):
        """Query 2a: 'an antijoin of partsupp and lineitem ... and then a
        semijoin of part' — both blocks unnest."""
        nullable, _ = dbs
        actions = plan_actions(query2("any", 1, 25, 5000, 25), nullable)
        assert actions[2] == SEMIJOIN
        assert actions[3] == ANTIJOIN

    def test_q2b_nullable_nested_iteration(self, dbs):
        """Query 2b general case: ALL cannot unnest; the inner NOT EXISTS
        is evaluated per tuple (nested loop antijoin)."""
        nullable, _ = dbs
        actions = plan_actions(query2("all", 1, 25, 5000, 25), nullable)
        assert actions[2] == NESTED_ITERATION
        assert actions[3] == NESTED_ITERATION

    def test_q2b_not_null_two_antijoins(self, dbs):
        """'If there is a NOT NULL constraint on ps_supplycost ... two
        antijoins instead of one antijoin and one semijoin'."""
        _, notnull = dbs
        actions = plan_actions(query2("all", 1, 25, 5000, 25), notnull)
        assert actions[2] == ANTIJOIN_NEGATED
        assert actions[3] == ANTIJOIN


class TestQuery3Plans:
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_no_antijoin_even_with_not_null(self, dbs, variant):
        """'System A is unable to use antijoin in these queries, even
        though the NOT NULL constraint is present' — the third block
        correlates with both enclosing blocks."""
        _, notnull = dbs
        actions = plan_actions(
            query3("all", "not exists", variant, 1, 25, 5000, 25), notnull
        )
        assert actions[2] == NESTED_ITERATION
        assert actions[3] == NESTED_ITERATION

    def test_explain_mentions_reason(self, dbs):
        nullable, _ = dbs
        strategy = SystemAEmulationStrategy()
        q = repro.compile_sql(query3("all", "exists", "a", 1, 25, 5000, 25), nullable)
        text = strategy.explain(q, nullable)
        assert "nested-iteration" in text
        assert "non-adjacent" in text


class TestExecutionCorrectness:
    @pytest.mark.parametrize(
        "sql_builder",
        [
            lambda: query1("1992-03-01", "1993-06-01"),
            lambda: query2("any", 1, 30, 6000, 20),
            lambda: query2("all", 1, 30, 6000, 20),
            lambda: query3("all", "exists", "a", 1, 30, 6000, 20),
            lambda: query3("all", "not exists", "b", 1, 30, 6000, 20),
            lambda: query3("any", "exists", "c", 1, 30, 6000, 20),
        ],
    )
    def test_matches_oracle(self, dbs, sql_builder):
        nullable, _ = dbs
        sql = sql_builder()
        prepared = repro.connect(nullable).prepare(sql)
        q = prepared.query
        oracle = prepared.execute(strategy="nested-iteration")
        out = SystemAEmulationStrategy().execute(q, nullable)
        assert out == oracle

    def test_not_null_plans_also_correct(self, dbs):
        _, notnull = dbs
        for sql in (
            query1("1992-03-01", "1993-06-01"),
            query2("all", 1, 30, 6000, 20),
        ):
            prepared = repro.connect(notnull).prepare(sql)
            q = prepared.query
            oracle = prepared.execute(strategy="nested-iteration")
            assert SystemAEmulationStrategy().execute(q, notnull) == oracle

    def test_index_choice_follows_bound_columns(self, dbs):
        """Variant (b) binds only l_suppkey by equality, so the emulation
        must probe the single-column index and fetch more rows than
        variant (a), which can use the combined index."""
        from repro.engine.metrics import collect

        nullable, _ = dbs
        strategy = SystemAEmulationStrategy()
        qa = repro.compile_sql(query3("all", "not exists", "a", 1, 25, 5000, 25), nullable)
        qb = repro.compile_sql(query3("all", "not exists", "b", 1, 25, 5000, 25), nullable)
        with collect() as ma:
            strategy.execute(qa, nullable)
        with collect() as mb:
            strategy.execute(qb, nullable)
        fetched_a = ma.get("index_rows_fetched")
        fetched_b = mb.get("index_rows_fetched")
        assert fetched_b > fetched_a
