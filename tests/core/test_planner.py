"""Unit tests for the strategy registry and the presets' guards."""

import pytest

import repro
from repro.core.compute import NestedRelationalStrategy
from repro import strategies as registry
from repro.core.optimizer import strategy_applicable
from repro.strategies import available_strategies, make as make_strategy
from repro.engine import Column, Database
from repro.errors import PlanError


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(1, 5), (2, 3)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("v")],
        [(1, 1, 4), (2, 2, 10)],
        primary_key="k",
    )
    return d


class TestRegistry:
    def test_available_names(self):
        names = available_strategies()
        assert "nested-relational" in names
        assert "nested-iteration" in names
        assert "system-a-native" in names
        assert "auto" in names

    def test_make_strategy(self):
        assert isinstance(
            make_strategy("nested-relational"), NestedRelationalStrategy
        )

    def test_unknown_strategy(self):
        with pytest.raises(PlanError, match="unknown strategy"):
            make_strategy("quantum")

    def test_execute_accepts_instance(self, db):
        out = repro.connect(db).execute(
            "select r.k from r", strategy=NestedRelationalStrategy()
        )
        assert len(out) == 2


OPTIMIZED = "nested-relational-optimized"
BOTTOMUP = "nested-relational-bottomup"
POSITIVE_REWRITE = "nested-relational-positive-rewrite"


def row_candidates(query, db):
    """The row-side strategies whose guards accept *query*."""
    return {
        entry.name for entry in registry.entries()
        if entry.backend == "row"
        and strategy_applicable(entry.make(), query, db)
    }


class TestAutoChoice:
    """Which §4.2 presets accept which query shape."""

    def test_flat_query(self, db):
        q = repro.compile_sql("select r.k from r where r.a > 3", db)
        assert "nested-relational" in row_candidates(q, db)

    def test_all_positive_uses_rewrite(self, db):
        q = repro.compile_sql(
            "select r.k from r where exists (select * from s where s.rk = r.k)", db
        )
        assert POSITIVE_REWRITE in row_candidates(q, db)

    def test_linear_correlated_negative_uses_bottom_up(self, db):
        q = repro.compile_sql(
            "select r.k from r where r.a > all (select s.v from s where s.rk = r.k)",
            db,
        )
        names = row_candidates(q, db)
        assert BOTTOMUP in names
        assert POSITIVE_REWRITE not in names

    def test_linear_nonlinear_correlation_uses_single_pass(self, db, paper_db):
        from tests.core.test_paper_example import QUERY_Q

        q = repro.compile_sql(QUERY_Q, paper_db)
        names = row_candidates(q, paper_db)
        assert OPTIMIZED in names
        assert not {BOTTOMUP, POSITIVE_REWRITE} & names

    def test_tree_query_uses_original(self, db):
        sql = """
        select r.k from r
        where exists (select * from s where s.rk = r.k)
          and r.a not in (select s2.v from s s2 where s2.rk = r.k)
        """
        q = repro.compile_sql(sql, db)
        names = row_candidates(q, db)
        assert "nested-relational" in names
        assert not {BOTTOMUP, POSITIVE_REWRITE} & names

    def test_auto_execution_correct(self, db):
        sql = "select r.k from r where r.a > all (select s.v from s where s.rk = r.k)"
        auto = repro.connect(db).execute(sql, strategy="auto")
        oracle = repro.connect(db).execute(sql, strategy="nested-iteration")
        assert auto == oracle
