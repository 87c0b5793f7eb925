"""Golden tests for the paper's running example (Sections 2-4).

Relations R, S, T are Figure 1's data (see ``conftest.paper_db``).  The
expected tuples below are hand-derived by applying Definitions 3-5 to
that data; they pin the pipeline of Example 1 / Figure 2:

* Temp1 — R ⟕_{R.D=S.G} S ⟕_{T.K=R.C ∧ T.L<>S.I} T, projected;
* Temp2 — υ_{{R.B,R.C,R.D,S.E,S.H,S.I},{T.J,T.L}}(Temp1);
* Temp3 — σ*_{S.H>ALL{T.J}, pad {S.E,S.H,S.I}}(Temp2)  (pseudo);
* Temp4 — σ_{S.H>ALL{T.J}}(Temp2)                      (strict);

plus the full Query Q of Section 2 evaluated by every strategy.
"""

import pytest

import repro
from repro.core.linking import SetPredicate
from repro.core.nest import nest, nest_sorted
from repro.core.selection import linking_selection, pseudo_selection
from repro.engine.expressions import Col, Comparison, And
from repro.engine.operators import left_outer_hash_join
from repro.engine.relation import Relation
from repro.engine.types import NULL, row_sort_key


TEMP1_REFS = ["R.B", "R.C", "R.D", "S.E", "S.H", "S.I", "T.J", "T.L"]

EXPECTED_TEMP1 = [
    (2, 3, 1, 7, 5, 1, NULL, NULL),   # (r1,s1): no T matches T.K=3 ∧ L<>1
    (3, 2, 2, 2, 2, 2, 2, 3),         # (r2,s2,t3)
    (2, 3, 3, 2, 4, 3, 3, 1),         # (r3,s3,t1)
    (2, 3, 3, 4, NULL, 4, 3, 1),      # (r3,s4,t1)
    (NULL, 5, 4, NULL, NULL, NULL, NULL, NULL),  # r4 unmatched twice
]


def temp1(paper_db):
    r = paper_db.relation("R")
    s = paper_db.relation("S")
    t = paper_db.relation("T")
    rs = left_outer_hash_join(r, s, ["R.D"], ["S.G"])
    residual = Comparison("<>", Col("T.L"), Col("S.I"))
    rst = left_outer_hash_join(rs, t, ["R.C"], ["T.K"], residual=residual)
    return rst.project(TEMP1_REFS)


class TestTemp1:
    def test_rows(self, paper_db):
        expected = Relation(temp1(paper_db).schema, EXPECTED_TEMP1)
        assert temp1(paper_db) == expected

    def test_unmatched_outer_tuples_present(self, paper_db):
        """Outer-join padding keeps R tuples with empty subquery results —
        the information classical unnest would need to reconstruct."""
        rows = temp1(paper_db).rows
        assert (NULL, 5, 4, NULL, NULL, NULL, NULL, NULL) in rows


class TestTemp2:
    def test_nest_structure(self, paper_db):
        temp2 = nest(
            temp1(paper_db),
            by=["R.B", "R.C", "R.D", "S.E", "S.H", "S.I"],
            keep=["T.J", "T.L"],
        )
        assert len(temp2) == 5
        groups = {row[2]: row[6] for row in temp2.rows}  # key by R.D... not unique
        # key by the (R.D, S.I) pair instead
        groups = {(row[2], row[5]): row[6] for row in temp2.rows}
        assert groups[(1, 1)] == ((NULL, NULL),)
        assert groups[(2, 2)] == ((2, 3),)
        assert groups[(3, 3)] == ((3, 1),)
        assert groups[(3, 4)] == ((3, 1),)
        assert groups[(4, NULL)] == ((NULL, NULL),)

    def test_sorted_nest_equivalent(self, paper_db):
        a = nest(
            temp1(paper_db),
            by=["R.B", "R.C", "R.D", "S.E", "S.H", "S.I"],
            keep=["T.J", "T.L"],
        )
        b = nest_sorted(
            temp1(paper_db),
            by=["R.B", "R.C", "R.D", "S.E", "S.H", "S.I"],
            keep=["T.J", "T.L"],
        )
        assert len(a) == len(b)


def temp2(paper_db):
    return nest(
        temp1(paper_db),
        by=["R.B", "R.C", "R.D", "S.E", "S.H", "S.I"],
        keep=["T.J", "T.L"],
    )


class TestTemp3PseudoSelection:
    def test_rows(self, paper_db):
        temp3 = pseudo_selection(
            temp2(paper_db),
            SetPredicate("all", ">"),
            linking_ref="S.H",
            linked_ref="T.J",
            pk_ref="T.L",
            pad_refs=["S.E", "S.H", "S.I"],
        )
        expected = Relation(
            temp3.schema,
            [
                (2, 3, 1, 7, 5, 1),                  # empty set: ALL true
                (3, 2, 2, NULL, NULL, NULL),         # 2 > ALL {2} false: padded
                (2, 3, 3, 2, 4, 3),                  # 4 > ALL {3} true
                (2, 3, 3, NULL, NULL, NULL),         # NULL > ALL {3} unknown: padded
                (NULL, 5, 4, NULL, NULL, NULL),      # empty set: true (pads were null)
            ],
        )
        assert temp3 == expected

    def test_paper_narrative_tuple_counts(self, paper_db):
        """'we can not discard this tuple ... we have to keep this tuple by
        padding null values on S.E, S.H and S.I'"""
        temp3 = pseudo_selection(
            temp2(paper_db),
            SetPredicate("all", ">"),
            "S.H",
            "T.J",
            pk_ref="T.L",
            pad_refs=["S.E", "S.H", "S.I"],
        )
        assert len(temp3) == len(temp2(paper_db))


class TestTemp4StrictSelection:
    def test_rows(self, paper_db):
        temp4 = linking_selection(
            temp2(paper_db),
            SetPredicate("all", ">"),
            linking_ref="S.H",
            linked_ref="T.J",
            pk_ref="T.L",
        )
        expected = Relation(
            temp4.schema,
            [
                (2, 3, 1, 7, 5, 1),
                (2, 3, 3, 2, 4, 3),
                (NULL, 5, 4, NULL, NULL, NULL),
            ],
        )
        assert temp4 == expected


QUERY_Q = """
select R.B, R.C, R.D
from R
where R.A > 1
  and R.B not in
    (select S.E from S
     where S.F = 5 and R.D = S.G
       and S.H > all
         (select T.J from T
          where T.K = R.C and T.L <> S.I))
"""


class TestQueryQ:
    """The full two-level query of Section 2, hand-evaluated:

    only r2 = (2,3,2,2) qualifies: its single S candidate s2 fails the
    inner ALL (2 > ALL {2} is false), so the NOT IN set is empty; r3's
    candidate s3 passes the ALL, and R.B = 2 ∈ {2} kills it.
    """

    EXPECTED = [(3, 2, 2)]

    @pytest.mark.parametrize(
        "strategy",
        [
            "nested-iteration",
            "nested-relational",
            "nested-relational-sorted",
            "nested-relational-optimized",
            "system-a-native",
        ],
    )
    def test_all_strategies(self, paper_db, strategy):
        result = repro.connect(paper_db).execute(QUERY_Q, strategy=strategy)
        assert result.sorted().rows == self.EXPECTED

    def test_query_shape_classification(self, paper_db):
        q = repro.compile_sql(QUERY_Q, paper_db)
        assert len(q.blocks) == 3
        assert q.nesting_depth == 2
        assert q.is_linear            # chain R -> S -> T
        assert not q.is_linearly_correlated()  # T correlates with R too
        assert q.has_negative_link and not q.has_mixed_links

    def test_tree_expression_matches_figure3(self, paper_db):
        q = repro.compile_sql(QUERY_Q, paper_db)
        tree = repro.TreeExpression(q)
        rendered = tree.render()
        assert "T1: R" in rendered
        assert "T2: S" in rendered
        assert "T3: T" in rendered
        assert "ALL" in rendered
        assert "R.D = S.G" in rendered
        assert len(tree.leaves()) == 1

    def test_pure_algorithm_without_virtual_cartesian(self, paper_db):
        from repro.core import NestedRelationalStrategy

        q = repro.compile_sql(QUERY_Q, paper_db)
        strategy = NestedRelationalStrategy(rules={"strict-when-positive"})
        assert strategy.execute(q, paper_db).sorted().rows == self.EXPECTED

    def test_without_strict_when_positive(self, paper_db):
        from repro.core import NestedRelationalStrategy

        q = repro.compile_sql(QUERY_Q, paper_db)
        strategy = NestedRelationalStrategy(rules={"virtual-cartesian"})
        assert strategy.execute(q, paper_db).sorted().rows == self.EXPECTED


class TestLinearVariantOfQueryQ:
    """Section 4.2.3's linear-correlation variant: drop T.K = R.C and flip
    T.L <> S.I to T.L = S.I — now bottom-up evaluation applies."""

    QUERY = """
    select R.B, R.C, R.D
    from R
    where R.A > 1
      and R.B not in
        (select S.E from S
         where S.F = 5 and R.D = S.G
           and S.H > all
             (select T.J from T where T.L = S.I))
    """

    def test_becomes_linearly_correlated(self, paper_db):
        q = repro.compile_sql(self.QUERY, paper_db)
        assert q.is_linearly_correlated()

    def test_bottom_up_agrees_with_oracle(self, paper_db):
        oracle = repro.connect(paper_db).execute(self.QUERY, strategy="nested-iteration")
        bottom_up = repro.connect(paper_db).execute(self.QUERY, strategy="nested-relational-bottomup")
        assert bottom_up == oracle
