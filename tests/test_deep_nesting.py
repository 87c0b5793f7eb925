"""Integration tests for deep and wide query shapes.

The paper claims the nested relational approach handles "nested queries
of any type and any level" uniformly.  These tests push past the
two-level workloads of the benchmark section: three-level chains,
tree queries with two and three subqueries in one block, subqueries at
different depths, and combinations of every linking operator — all
differentially checked against the tuple-iteration oracle.
"""

import pytest

import repro
from repro.engine import Column, Database, NULL

STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "system-a-native",
    "auto",
]


@pytest.fixture(scope="module")
def db():
    d = Database()
    d.create_table(
        "a",
        [Column("k", not_null=True), Column("x"), Column("y")],
        [(i, i % 5, i % 3) for i in range(20)],
        primary_key="k",
    )
    d.create_table(
        "b",
        [Column("k", not_null=True), Column("ak"), Column("v")],
        [(i, i % 20, (i * 7) % 10 if i % 6 else NULL) for i in range(40)],
        primary_key="k",
    )
    d.create_table(
        "c",
        [Column("k", not_null=True), Column("bk"), Column("w")],
        [(i, i % 40, i % 4) for i in range(60)],
        primary_key="k",
    )
    d.create_table(
        "d",
        [Column("k", not_null=True), Column("ck"), Column("z")],
        [(i, i % 60, i % 2) for i in range(50)],
        primary_key="k",
    )
    return d


def check(db, sql, strategies=STRATEGIES):
    prepared = repro.connect(db).prepare(sql)
    oracle = prepared.execute(strategy="nested-iteration").sorted()
    for strategy in strategies:
        got = prepared.execute(strategy=strategy).sorted()
        assert got == oracle, f"{strategy}: {got.rows} != {oracle.rows}"
    return oracle


class TestThreeLevels:
    def test_all_all_all(self, db):
        check(
            db,
            """select a.k from a where a.x > all
               (select b.v from b where b.ak = a.k and b.v <= all
                  (select c.w from c where c.bk = b.k))""",
        )

    def test_mixed_three_levels(self, db):
        check(
            db,
            """select a.k from a where exists
               (select * from b where b.ak = a.k and b.v not in
                  (select c.w from c where c.bk = b.k and exists
                     (select * from d where d.ck = c.k and d.z = a.y)))""",
        )

    def test_four_levels_deep(self, db):
        oracle = check(
            db,
            """select a.k from a where a.x >= some
               (select b.v from b where b.ak = a.k and not exists
                  (select * from c where c.bk = b.k and c.w in
                     (select d.z from d where d.ck = c.k)))""",
        )
        assert len(oracle) > 0  # non-trivial result

    def test_depth_classification(self, db):
        q = repro.compile_sql(
            """select a.k from a where exists
               (select * from b where b.ak = a.k and exists
                  (select * from c where c.bk = b.k and exists
                     (select * from d where d.ck = c.k)))""",
            db,
        )
        assert q.nesting_depth == 3
        assert len(q.blocks) == 4


class TestTreeQueries:
    def test_two_children_mixed(self, db):
        check(
            db,
            """select a.k from a
               where exists (select * from b where b.ak = a.k)
                 and a.x not in (select c.w from c where c.bk = a.k)""",
        )

    def test_three_children_one_block(self, db):
        oracle = check(
            db,
            """select a.k from a
               where exists (select * from b where b.ak = a.k)
                 and a.x > any (select c.w from c where c.bk = a.k)
                 and not exists (select * from d where d.ck = a.k and d.z = 1)""",
        )
        assert len(oracle) >= 0

    def test_subroot_below_root(self, db):
        """The subroot is an inner block: b carries two subqueries."""
        check(
            db,
            """select a.k from a where a.x in
               (select b.v from b where b.ak = a.k
                  and exists (select * from c where c.bk = b.k)
                  and b.v > all (select d.z from d where d.ck = b.k))""",
        )

    def test_tree_expression_structure(self, db):
        q = repro.compile_sql(
            """select a.k from a
               where exists (select * from b where b.ak = a.k)
                 and exists (select * from c where c.bk = a.k)""",
            db,
        )
        tree = repro.TreeExpression(q)
        assert len(tree.root.children) == 2
        assert len(tree.leaves()) == 2

    def test_tree_with_deep_branches(self, db):
        check(
            db,
            """select a.k from a
               where a.x <= all (select b.v from b where b.ak = a.k and
                                 exists (select * from c where c.bk = b.k))
                 and exists (select * from d where d.ck = a.k)""",
        )


class TestOperatorMatrix:
    """Every pair of linking operators across two levels."""

    OPS = {
        "exists": "exists (select * from {t} where {corr})",
        "not_exists": "not exists (select * from {t} where {corr})",
        "in": "{lhs} in (select {val} from {t} where {corr})",
        "not_in": "{lhs} not in (select {val} from {t} where {corr})",
        "lt_any": "{lhs} < any (select {val} from {t} where {corr})",
        "ge_all": "{lhs} >= all (select {val} from {t} where {corr})",
    }

    @pytest.mark.parametrize("outer_op", sorted(OPS))
    @pytest.mark.parametrize("inner_op", sorted(OPS))
    def test_pairs(self, db, outer_op, inner_op):
        inner = self.OPS[inner_op].format(
            t="c", corr="c.bk = b.k", lhs="b.v", val="c.w"
        )
        outer = self.OPS[outer_op].format(
            t="b", corr=f"b.ak = a.k and {inner}", lhs="a.x", val="b.v"
        )
        check(db, f"select a.k from a where {outer}")


class TestEdgeCases:
    def test_empty_outer_block(self, db):
        oracle = check(
            db,
            "select a.k from a where a.x > 99 and exists "
            "(select * from b where b.ak = a.k)",
        )
        assert len(oracle) == 0

    def test_empty_inner_block_negative(self, db):
        """Inner Δ eliminates every tuple: NOT EXISTS holds everywhere."""
        oracle = check(
            db,
            "select a.k from a where not exists "
            "(select * from b where b.ak = a.k and b.v > 99)",
        )
        assert len(oracle) == len(db.relation("a"))

    def test_empty_inner_block_all(self, db):
        oracle = check(
            db,
            "select a.k from a where a.x > all "
            "(select b.v from b where b.ak = a.k and b.v > 99)",
        )
        assert len(oracle) == len(db.relation("a"))

    def test_multi_table_outer_block(self, db):
        check(
            db,
            """select a.k, b.k from a, b
               where a.k = b.ak and a.x not in
                 (select c.w from c where c.bk = b.k)""",
        )

    def test_multi_table_inner_block(self, db):
        check(
            db,
            """select a.k from a where a.x in
               (select c.w from b, c where b.k = c.bk and b.ak = a.k)""",
        )

    def test_self_join_across_levels(self, db):
        check(
            db,
            """select a.k from a where a.x > all
               (select a2.x from a a2 where a2.y = a.y and a2.k <> a.k)""",
        )
