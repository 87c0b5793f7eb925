"""Unit tests for the query-block model and its classification logic."""

import pytest

from repro.core.blocks import (
    Correlation,
    LinkSpec,
    NestedQuery,
    QueryBlock,
)
from repro.engine.expressions import cmp
from repro.errors import AnalysisError


def block(tables, link=None, corrs=(), children=(), select=()):
    return QueryBlock(
        tables=dict(tables),
        link=link,
        correlations=list(corrs),
        children=list(children),
        select_refs=list(select),
    )


def linear_query(link2_op="all", link3_op="not_exists"):
    t = block(
        {"T": "T"},
        link=LinkSpec(link3_op)
        if link3_op in ("exists", "not_exists")
        else LinkSpec(link3_op, "S.H", ">", "T.J"),
        corrs=[Correlation("S.I", "=", "T.L")],
    )
    s = block(
        {"S": "S"},
        link=LinkSpec(link2_op, "R.B", "<>", "S.E")
        if link2_op not in ("exists", "not_exists")
        else LinkSpec(link2_op),
        corrs=[Correlation("R.D", "=", "S.G")],
        children=[t],
    )
    return NestedQuery(block({"R": "R"}, children=[s], select=["R.B"]))


class TestLinkSpec:
    def test_in_normalizes_to_eq_some(self):
        link = LinkSpec("in", "R.B", "=", "S.E")
        assert link.quantifier == "some"
        assert link.effective_theta == "="

    def test_not_in_normalizes_to_neq_all(self):
        link = LinkSpec("not_in", "R.B", "<>", "S.E")
        assert link.quantifier == "all"
        assert link.effective_theta == "<>"

    def test_polarity(self):
        assert LinkSpec("exists").is_positive
        assert LinkSpec("not_exists").is_negative
        assert LinkSpec("all", "a", ">", "b").is_negative
        assert LinkSpec("some", "a", ">", "b").is_positive

    def test_quantified_requires_parts(self):
        with pytest.raises(AnalysisError):
            LinkSpec("all")

    def test_unknown_operator(self):
        with pytest.raises(AnalysisError):
            LinkSpec("maybe")

    def test_describe(self):
        assert LinkSpec("exists").describe() == "EXISTS"
        assert "ALL" in LinkSpec("not_in", "R.B", "<>", "S.E").describe()


class TestCorrelation:
    def test_equality_flag(self):
        assert Correlation("R.D", "=", "S.G").is_equality
        assert not Correlation("R.D", "<", "S.G").is_equality

    def test_as_expr(self):
        expr = Correlation("R.D", "=", "S.G").as_expr()
        assert expr.columns() == ["R.D", "S.G"]

    def test_bad_operator(self):
        with pytest.raises(AnalysisError):
            Correlation("a.x", "~", "b.y")


class TestNumbering:
    def test_dfs_left_to_right(self):
        q = linear_query()
        assert [b.index for b in q.blocks] == [1, 2, 3]

    def test_tree_numbering(self):
        c1 = block({"A": "A"}, link=LinkSpec("exists"))
        c2 = block({"B": "B"}, link=LinkSpec("exists"))
        q = NestedQuery(block({"R": "R"}, children=[c1, c2], select=["R.x"]))
        assert [b.index for b in q.blocks] == [1, 2, 3]
        assert c1.index == 2 and c2.index == 3


class TestShapeClassification:
    def test_linear(self):
        q = linear_query()
        assert q.is_linear and not q.is_tree
        assert q.nesting_depth == 2

    def test_tree(self):
        c1 = block({"A": "A"}, link=LinkSpec("exists"))
        c2 = block({"B": "B"}, link=LinkSpec("exists"))
        q = NestedQuery(block({"R": "R"}, children=[c1, c2], select=["R.x"]))
        assert q.is_tree
        assert q.nesting_depth == 1

    def test_polarity_flags(self):
        q = linear_query("all", "not_exists")
        assert q.has_negative_link and not q.has_positive_link
        q2 = linear_query("some", "not_exists")
        assert q2.has_mixed_links

    def test_linearly_correlated_true(self):
        q = linear_query()
        assert q.is_linearly_correlated()

    def test_linearly_correlated_false_for_grandparent_ref(self):
        t = block(
            {"T": "T"},
            link=LinkSpec("not_exists"),
            corrs=[Correlation("R.C", "=", "T.K")],  # references grandparent
        )
        s = block(
            {"S": "S"},
            link=LinkSpec("all", "R.B", "<>", "S.E"),
            corrs=[Correlation("R.D", "=", "S.G")],
            children=[t],
        )
        q = NestedQuery(block({"R": "R"}, children=[s], select=["R.B"]))
        assert not q.is_linearly_correlated()

    def test_parent_and_ancestors(self):
        q = linear_query()
        blocks = q.blocks
        assert q.parent_of(blocks[1]) is blocks[0]
        assert q.parent_of(blocks[0]) is None
        ancestors, b = [], q.parent_of(blocks[2])
        while b is not None:
            ancestors.insert(0, b)
            b = q.parent_of(b)
        assert ancestors == [blocks[0], blocks[1]]

    def test_describe_mentions_flags(self):
        text = linear_query().describe()
        assert "linear" in text and "block 1" in text


class TestValidation:
    def test_duplicate_alias_rejected(self):
        child = block({"R": "S"}, link=LinkSpec("exists"))
        with pytest.raises(AnalysisError, match="alias"):
            NestedQuery(block({"R": "R"}, children=[child], select=["R.x"]))

    def test_nonroot_needs_link(self):
        child = block({"S": "S"})
        with pytest.raises(AnalysisError, match="lacks a link"):
            NestedQuery(block({"R": "R"}, children=[child], select=["R.x"]))

    def test_root_needs_select(self):
        with pytest.raises(AnalysisError, match="SELECT"):
            NestedQuery(block({"R": "R"}))

    def test_empty_from_rejected(self):
        with pytest.raises(AnalysisError, match="FROM"):
            NestedQuery(block({}, select=["x"]))

    def test_correlation_must_resolve_in_ancestor(self):
        child = block(
            {"S": "S"},
            link=LinkSpec("exists"),
            corrs=[Correlation("Z.q", "=", "S.G")],
        )
        with pytest.raises(AnalysisError, match="does not"):
            NestedQuery(block({"R": "R"}, children=[child], select=["R.x"]))

    def test_correlation_inner_side_must_belong_to_block(self):
        child = block(
            {"S": "S"},
            link=LinkSpec("exists"),
            corrs=[Correlation("R.D", "=", "R.C")],
        )
        with pytest.raises(AnalysisError, match="inner side"):
            NestedQuery(block({"R": "R"}, children=[child], select=["R.x"]))
