"""Unit tests for strategy registry and auto selection."""

import pytest

import repro
from repro.core.compute import NestedRelationalStrategy
from repro.core.optimized import (
    BottomUpLinearStrategy,
    OptimizedNestedRelationalStrategy,
    PositiveRewriteStrategy,
)
from repro.core.planner import (
    available_strategies,
    choose_strategy,
    make_strategy,
)
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


class TestAutoChoice:
    def test_flat_query(self, db):
        q = repro.compile_sql("select r.k from r where r.a > 3", db)
        assert isinstance(choose_strategy(q), NestedRelationalStrategy)

    def test_all_positive_uses_rewrite(self, db):
        q = repro.compile_sql(
            "select r.k from r where exists (select * from s where s.rk = r.k)", db
        )
        assert isinstance(choose_strategy(q), PositiveRewriteStrategy)

    def test_linear_correlated_negative_uses_bottom_up(self, db):
        q = repro.compile_sql(
            "select r.k from r where r.a > all (select s.v from s where s.rk = r.k)",
            db,
        )
        assert isinstance(choose_strategy(q), BottomUpLinearStrategy)

    def test_linear_nonlinear_correlation_uses_single_pass(self, db, paper_db):
        from tests.core.test_paper_example import QUERY_Q

        q = repro.compile_sql(QUERY_Q, paper_db)
        assert isinstance(choose_strategy(q), OptimizedNestedRelationalStrategy)

    def test_tree_query_uses_original(self, db):
        sql = """
        select r.k from r
        where exists (select * from s where s.rk = r.k)
          and r.a not in (select s2.v from s s2 where s2.rk = r.k)
        """
        q = repro.compile_sql(sql, db)
        assert isinstance(choose_strategy(q), NestedRelationalStrategy)

    def test_auto_execution_correct(self, db):
        sql = "select r.k from r where r.a > all (select s.v from s where s.rk = r.k)"
        auto = repro.connect(db).execute(sql, strategy="auto")
        oracle = repro.connect(db).execute(sql, strategy="nested-iteration")
        assert auto == oracle
