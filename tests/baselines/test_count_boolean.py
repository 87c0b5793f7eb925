"""Unit tests for the count-rewrite and Boolean-aggregate baselines."""

import pytest

import repro
from repro.baselines import BooleanAggregateStrategy, CountRewriteStrategy
from repro.engine import Column, Database, NULL
from repro.errors import PlanError


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(1, 5), (2, 2), (3, NULL), (4, 9)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b")],
        [(1, 1, 2), (2, 1, NULL), (3, 2, 10), (4, 4, 1), (5, 4, 2)],
        primary_key="k",
    )
    d.create_table(
        "t",
        [Column("k", not_null=True), Column("sk"), Column("c")],
        [(1, 1, 1), (2, 4, 2)],
        primary_key="k",
    )
    return d


QUERIES = [
    "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)",
    "select r.k from r where r.a < some (select s.b from s where s.rk = r.k)",
    "select r.k from r where r.a in (select s.b from s where s.rk = r.k)",
    "select r.k from r where r.a not in (select s.b from s where s.rk = r.k)",
    "select r.k from r where exists (select * from s where s.rk = r.k)",
    "select r.k from r where not exists (select * from s where s.rk = r.k)",
    """select r.k from r where r.a > all
       (select s.b from s where s.rk = r.k and not exists
          (select * from t where t.sk = s.k))""",
]


@pytest.mark.parametrize("strategy_cls", [CountRewriteStrategy, BooleanAggregateStrategy])
class TestAgainstOracle:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matches_oracle(self, db, strategy_cls, sql):
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        strategy = strategy_cls()
        assert strategy.applicable(q, db) is None
        oracle = prepared.execute(strategy="nested-iteration")
        assert strategy.execute(q, db) == oracle

    def test_rejects_non_linear_correlation(self, db, strategy_cls):
        sql = """
        select r.k from r where r.a > all
          (select s.b from s where s.rk = r.k and exists
             (select * from t where t.sk = r.k))
        """
        q = repro.compile_sql(sql, db)
        strategy = strategy_cls()
        assert strategy.applicable(q, db) is not None
        with pytest.raises(PlanError):
            strategy.execute(q, db)

    def test_rejects_tree_queries(self, db, strategy_cls):
        sql = """
        select r.k from r
        where exists (select * from s where s.rk = r.k)
          and exists (select * from t where t.sk = r.k)
        """
        q = repro.compile_sql(sql, db)
        assert strategy_cls().applicable(q, db) is not None


class TestNullBucketCounting:
    """The count rewrite must count UNKNOWN comparisons separately —
    naive 'count of violations = 0' reproduces the antijoin bug."""

    def test_unknown_bucket_blocks_all(self, db):
        sql = "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)"
        q = repro.compile_sql(sql, db)
        out = CountRewriteStrategy().execute(q, db).sorted().rows
        # r1 sees {2, NULL}: no violation but one UNKNOWN -> excluded.
        assert (1,) not in out
        # r3 (a=NULL) sees {10}: UNKNOWN -> excluded; r2 sees {10}: 2>10 F.
        assert out == [(4,)] or (4,) in out

    def test_distinct_preserved(self, db):
        sql = "select distinct r.a from r where exists (select * from s where s.rk = r.k)"
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        a = CountRewriteStrategy().execute(q, db)
        b = prepared.execute(strategy="nested-iteration")
        assert a == b
