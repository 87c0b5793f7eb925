"""Unit tests for plan explanation."""

import pytest

import repro
from repro.core.compute import NestedRelationalStrategy
from repro.errors import PlanError

explain_nested_relational = NestedRelationalStrategy().explain


def explain(sql, db, strategy):
    """The plan text ``PreparedQuery.explain`` draws for *strategy*."""
    return repro.connect(db).prepare(sql).explain(strategy=strategy).operators


@pytest.fixture()
def db(paper_db):
    return paper_db


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


class TestNestedRelationalExplain:
    def test_figure3b_elements(self, db):
        q = repro.compile_sql(QUERY_Q, db)
        text = explain_nested_relational(q)
        # final projection
        assert text.splitlines()[0].startswith("π R.B, R.C, R.D")
        # both linking selections, with normalized operators
        assert "<> ALL {S.E}" in text
        assert "> ALL {T.J}" in text
        # nests with by/keep lists
        assert "υ by[attrs(T1)]" in text
        assert "υ by[attrs(T1), attrs(T2)]" in text
        # outer joins labelled with the correlated predicates
        assert "R.D = S.G" in text
        assert "S.I <> T.L" in text or "T.L <> S.I" in text
        # base relations with pushed-down selections
        assert "T1: R" in text and "T2: S" in text and "T3: T" in text

    def test_pseudo_vs_strict_markers(self, db):
        q = repro.compile_sql(QUERY_Q, db)
        text = explain_nested_relational(q)
        assert "σ*" in text  # inner negative link needs pseudo-selection
        assert "σ " in text  # root link is strict

    def test_uncorrelated_subquery_marked_virtual(self, db):
        sql = "select R.B, R.C, R.D from R where R.B in (select S.E from S)"
        q = repro.compile_sql(sql, db)
        text = explain_nested_relational(q)
        assert "virtual Cartesian product" in text


class TestDispatch:
    @pytest.mark.parametrize(
        "strategy",
        [
            "nested-relational",
            "nested-relational-sorted",
            "nested-relational-optimized",
            "nested-iteration",
            "system-a-native",
            "auto",
        ],
    )
    def test_explains_every_strategy(self, db, strategy):
        text = explain(QUERY_Q, db, strategy=strategy)
        assert text  # non-empty plan text

    def test_bottom_up_explainer(self, db):
        sql = """
        select R.B, R.C, R.D from R
        where R.B not in (select S.E from S where R.D = S.G)
        """
        text = explain(sql, db, strategy="nested-relational-bottomup")
        assert "bottom-up" in text
        assert "pushdown" in text

    def test_positive_rewrite_explainer(self, db):
        sql = "select R.B, R.C, R.D from R where R.B in (select S.E from S where R.D = S.G)"
        text = explain(sql, db, strategy="nested-relational-positive-rewrite")
        assert "semijoin" in text
        assert "⋉" in text

    def test_unknown_strategy(self, db):
        with pytest.raises(PlanError):
            explain(QUERY_Q, db, strategy="quantum")

    def test_optimized_mentions_single_pass(self, db):
        text = explain(QUERY_Q, db, strategy="nested-relational-optimized")
        assert "single-pass" in text
