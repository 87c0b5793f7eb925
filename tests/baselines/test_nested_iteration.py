"""Unit tests pinning the oracle's SQL semantics on hand-computed cases.

Everything else in the repository is differential-tested against
NestedIterationStrategy, so this module verifies the oracle itself
against values computed by hand from the SQL standard's rules.
"""

import pytest

import repro
from repro.baselines import NestedIterationStrategy
from repro.engine import Column, Database, NULL


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(1, 5), (2, 2), (3, NULL)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b")],
        [
            (1, 1, 2),
            (2, 1, 3),
            (3, 1, 4),
            (4, 1, NULL),   # r.k=1 sees {2,3,4,NULL}
            (5, 2, 1),      # r.k=2 sees {1}
            # r.k=3 sees {} (empty)
        ],
        primary_key="k",
    )
    return d


def run(sql, db):
    return repro.connect(db).execute(sql, strategy="nested-iteration").sorted().rows


class TestPaperNullExample:
    """Section 2: R.A = 5 against S.B = {2,3,4,NULL}."""

    def test_all_with_null_member_excludes(self, db):
        # 5 > ALL {2,3,4,NULL} is UNKNOWN -> r1 out; 2 > ALL {1} TRUE -> r2 in;
        # empty set TRUE -> r3 in.
        rows = run(
            "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)",
            db,
        )
        assert rows == [(2,), (3,)]

    def test_max_rewrite_would_differ(self, db):
        """The unsound MAX rewrite would let r1 through (max ignores NULL:
        5 > 4).  Pin that the oracle disagrees with it."""
        from repro.engine.operators import AggSpec, scalar_aggregate
        from repro.engine.relation import Relation

        s = db.relation("s")
        rk = s.schema.index_of("s.rk")
        s1 = Relation(s.schema, [row for row in s.rows if row[rk] == 1])
        max_b = scalar_aggregate(s1, AggSpec("max", "s.b"))
        assert max_b == 4 and 5 > max_b  # rewrite says r1 qualifies
        rows = run(
            "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)",
            db,
        )
        assert (1,) not in rows  # SQL says it does not

    def test_not_in_with_null_member(self, db):
        # r1: 5 NOT IN {2,3,4,NULL} -> UNKNOWN (out)
        # r2: 2 NOT IN {1} -> TRUE (in); r3: empty -> TRUE but r3.a NULL...
        # NOT IN over empty set is TRUE regardless of lhs.
        rows = run(
            "select r.k from r where r.a not in (select s.b from s where s.rk = r.k)",
            db,
        )
        assert rows == [(2,), (3,)]

    def test_in_with_null_member(self, db):
        # r1: 5 IN {2,3,4,NULL} -> UNKNOWN (out); add a matching member to see TRUE
        rows = run(
            "select r.k from r where r.a in (select s.b from s where s.rk = r.k)",
            db,
        )
        assert rows == []

    def test_null_lhs_against_empty_set(self, db):
        # r3.a is NULL but its set is empty: ALL -> TRUE, SOME -> FALSE.
        all_rows = run(
            "select r.k from r where r.a <> all (select s.b from s where s.rk = r.k)",
            db,
        )
        assert (3,) in all_rows
        some_rows = run(
            "select r.k from r where r.a = some (select s.b from s where s.rk = r.k)",
            db,
        )
        assert (3,) not in some_rows


class TestExistential:
    def test_exists(self, db):
        rows = run(
            "select r.k from r where exists (select * from s where s.rk = r.k)", db
        )
        assert rows == [(1,), (2,)]

    def test_not_exists(self, db):
        rows = run(
            "select r.k from r where not exists (select * from s where s.rk = r.k)",
            db,
        )
        assert rows == [(3,)]

    def test_exists_ignores_null_members(self, db):
        """EXISTS is about row existence, not value NULLness: the NULL-b
        row still witnesses existence."""
        rows = run(
            "select r.k from r where exists "
            "(select * from s where s.rk = r.k and s.b is null)",
            db,
        )
        assert rows == [(1,)]


class TestDuplicates:
    def test_output_preserves_outer_duplicates(self):
        d = Database()
        d.create_table(
            "t", [Column("k", not_null=True), Column("v")], [(1, 7), (2, 7)],
            primary_key="k",
        )
        out = repro.connect(d).execute("select v from t", strategy="nested-iteration")
        assert out.rows == [(7,), (7,)]

    def test_distinct_dedupes(self):
        d = Database()
        d.create_table(
            "t", [Column("k", not_null=True), Column("v")], [(1, 7), (2, 7)],
            primary_key="k",
        )
        out = repro.connect(d).execute("select distinct v from t", strategy="nested-iteration")
        assert out.rows == [(7,)]


class TestThreeLevelQuery:
    def test_three_levels_deep(self, db):
        db.create_table(
            "t2",
            [Column("k", not_null=True), Column("sk"), Column("c")],
            [(1, 1, 9), (2, 5, 1)],
            primary_key="k",
        )
        sql = """
        select r.k from r
        where exists (select * from s where s.rk = r.k and s.b not in
            (select t2.c from t2 where t2.sk = s.k))
        """
        rows = run(sql, db)
        # r1: s-rows k=1..4; each s: t2 set for s.k=1 -> {9}: 2 NOT IN {9} TRUE
        #  -> exists TRUE. r2: s.k=5 -> t2 {1}: 1 NOT IN {1} FALSE -> no s row
        #  qualifies -> out. r3: no s rows -> out.
        assert rows == [(1,)]
