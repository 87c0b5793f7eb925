"""Unit tests for Kim's MAX/MIN rewrite and its NULL guards."""

import pytest

import repro
from repro.baselines import AggregateRewriteStrategy
from repro.engine import Column, Database, NULL
from repro.errors import PlanError, UnsoundRewriteError


@pytest.fixture()
def nullable_db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a", not_null=True)],
        [(1, 5), (2, 2), (3, 7)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b")],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 1, NULL), (5, 2, 1)],
        primary_key="k",
    )
    return d


@pytest.fixture()
def notnull_db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a", not_null=True)],
        [(1, 5), (2, 2), (3, 7)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b", not_null=True)],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (5, 2, 1)],
        primary_key="k",
    )
    return d


ALL_SQL = "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)"


class TestGuards:
    def test_nullable_refused(self, nullable_db):
        q = repro.compile_sql(ALL_SQL, nullable_db)
        with pytest.raises(UnsoundRewriteError, match="NULLable"):
            AggregateRewriteStrategy().execute(q, nullable_db)

    def test_unguarded_reproduces_paper_bug(self, nullable_db):
        """'R.A >ALL (select S.B...) is not equal to R.A > (select
        max(S.B)...)' — the MAX rewrite wrongly admits r1."""
        prepared = repro.connect(nullable_db).prepare(ALL_SQL)
        q = prepared.query
        wrong = (
            AggregateRewriteStrategy(respect_null_soundness=False)
            .execute(q, nullable_db)
            .sorted()
            .rows
        )
        oracle = (
            prepared.execute(strategy="nested-iteration")
            .sorted()
            .rows
        )
        assert (1,) in wrong
        assert (1,) not in oracle

    def test_equality_quantifier_rejected(self, notnull_db):
        q = repro.compile_sql(
            "select r.k from r where r.a = some (select s.b from s where s.rk = r.k)",
            notnull_db,
        )
        strategy = AggregateRewriteStrategy()
        assert strategy.applicable(q, notnull_db) is not None
        with pytest.raises(PlanError, match="MIN/MAX"):
            strategy.execute(q, notnull_db)

    def test_multi_level_rejected(self, notnull_db):
        notnull_db.create_table(
            "t",
            [Column("k", not_null=True), Column("sk"), Column("c", not_null=True)],
            [(1, 1, 9)],
            primary_key="k",
        )
        sql = """
        select r.k from r where r.a > all
          (select s.b from s where s.rk = r.k and exists
             (select * from t where t.sk = s.k))
        """
        q = repro.compile_sql(sql, notnull_db)
        with pytest.raises(PlanError, match="one-level"):
            AggregateRewriteStrategy().execute(q, notnull_db)


class TestSoundCases:
    @pytest.mark.parametrize(
        "op,quant",
        [(">", "all"), (">=", "all"), ("<", "all"), ("<=", "all"),
         (">", "some"), ("<", "some"), (">=", "some"), ("<=", "some")],
    )
    def test_matches_oracle_without_nulls(self, notnull_db, op, quant):
        word = "all" if quant == "all" else "any"
        sql = (
            f"select r.k from r where r.a {op} {word} "
            "(select s.b from s where s.rk = r.k)"
        )
        prepared = repro.connect(notnull_db).prepare(sql)
        q = prepared.query
        strategy = AggregateRewriteStrategy()
        assert strategy.applicable(q, notnull_db) is None
        oracle = prepared.execute(strategy="nested-iteration")
        assert strategy.execute(q, notnull_db) == oracle

    def test_empty_set_semantics(self, notnull_db):
        # r3 has no s rows: ALL -> include, SOME -> exclude
        all_q = repro.compile_sql(ALL_SQL, notnull_db)
        out = AggregateRewriteStrategy().execute(all_q, notnull_db)
        assert (3,) in out.rows
        some_q = repro.compile_sql(
            "select r.k from r where r.a > any (select s.b from s where s.rk = r.k)",
            notnull_db,
        )
        out = AggregateRewriteStrategy().execute(some_q, notnull_db)
        assert (3,) not in out.rows

    def test_uncorrelated_subquery(self, notnull_db):
        sql = "select r.k from r where r.a > all (select s.b from s)"
        prepared = repro.connect(notnull_db).prepare(sql)
        q = prepared.query
        oracle = prepared.execute(strategy="nested-iteration")
        assert AggregateRewriteStrategy().execute(q, notnull_db) == oracle

    def test_registered_in_planner(self, notnull_db):
        out = repro.connect(notnull_db).execute(ALL_SQL, strategy="aggregate-rewrite")
        oracle = repro.connect(notnull_db).execute(ALL_SQL, strategy="nested-iteration")
        assert out == oracle
