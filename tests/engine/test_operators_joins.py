"""Unit tests for the join operator family."""

import pytest

from repro.engine.expressions import Col, Comparison
from repro.engine.operators import (
    anti_join,
    hash_join,
    left_outer_hash_join,
    nested_loop_join,
    outer_cross_join,
    semi_join,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import NULL, is_null
from repro.errors import ExecutionError


def left_rel(rows):
    return Relation(Schema.of("k", "x", table="l"), rows)


def right_rel(rows):
    return Relation(Schema.of("k", "y", table="r"), rows)


L = left_rel([(1, "a"), (2, "b"), (NULL, "c")])
R = right_rel([(1, 10), (1, 11), (3, 30), (NULL, 99)])


class TestHashJoin:
    def test_matches(self):
        out = hash_join(L, R, ["l.k"], ["r.k"])
        assert sorted(out.rows) == [(1, "a", 1, 10), (1, "a", 1, 11)]

    def test_null_keys_never_match(self):
        """NULL = NULL is UNKNOWN, so NULL keys join with nothing."""
        out = hash_join(L, R, ["l.k"], ["r.k"])
        assert not any(is_null(row[0]) for row in out.rows)

    def test_residual(self):
        residual = Comparison(">", Col("r.y"), Col("r.k"))
        out = hash_join(L, R, ["l.k"], ["r.k"], residual=residual)
        assert len(out) == 2  # both (1,10) and (1,11) satisfy y > k

    def test_key_arity_mismatch(self):
        with pytest.raises(ExecutionError):
            hash_join(L, R, ["l.k"], [])


class TestLeftOuterHashJoin:
    def test_unmatched_left_padded(self):
        out = left_outer_hash_join(L, R, ["l.k"], ["r.k"])
        padded = [row for row in out.rows if is_null(row[2])]
        # l.k=2 has no match; l.k=NULL never matches: both padded
        assert len(padded) == 2
        assert all(is_null(row[3]) for row in padded)

    def test_every_left_row_survives(self):
        out = left_outer_hash_join(L, R, ["l.k"], ["r.k"])
        left_keys = [row[:2] for row in out.rows]
        for row in L.rows:
            assert row in left_keys

    def test_residual_failure_pads(self):
        """A row matching on keys but failing the residual is padded —
        the residual belongs to the join condition, not a later filter."""
        residual = Comparison(">", Col("r.y"), Col("l.x_len"))
        left = Relation(Schema.of("k", "x_len", table="l"), [(1, 100)])
        out = left_outer_hash_join(left, R, ["l.k"], ["r.k"], residual=residual)
        assert len(out) == 1
        assert is_null(out.rows[0][2])

    def test_no_equi_keys_degrades_to_scan(self):
        residual = Comparison("<>", Col("l.k"), Col("r.k"))
        out = left_outer_hash_join(L, R, [], [], residual=residual)
        # l.k=1 pairs with r.k=3; l.k=2 with r.k in {1,1,3}; NULL pads
        counts = {}
        for row in out.rows:
            counts[row[1]] = counts.get(row[1], 0) + 1
        assert counts["a"] == 1 and counts["b"] == 3 and counts["c"] == 1


class TestSemiAntiJoin:
    def test_semijoin(self):
        out = semi_join(L, R, ["l.k"], ["r.k"])
        assert out.rows == [(1, "a")]

    def test_antijoin(self):
        out = anti_join(L, R, ["l.k"], ["r.k"])
        assert sorted(out.rows, key=str) == [(2, "b"), (NULL, "c")]

    def test_antijoin_null_key_kept(self):
        """An antijoin keeps NULL-key left rows — one of the reasons the
        NOT IN rewrite is unsound (SQL would say UNKNOWN)."""
        out = anti_join(L, R, ["l.k"], ["r.k"])
        assert any(is_null(row[0]) for row in out.rows)

    def test_semijoin_no_duplicates(self):
        out = semi_join(L, R, ["l.k"], ["r.k"])
        assert len(out) == 1  # two matches, one output row


class TestOuterCrossJoin:
    def test_product(self):
        out = outer_cross_join(left_rel([(1, "a")]), right_rel([(1, 1), (2, 2)]))
        assert out.rows == [(1, "a", 1, 1), (1, "a", 2, 2)]

    def test_empty_right_pads_every_left_row(self):
        """An empty uncorrelated subquery must not erase the outer rows:
        each survives once, padded."""
        out = outer_cross_join(L, right_rel([]))
        assert [row[:2] for row in out.rows] == L.rows
        assert all(is_null(row[2]) and is_null(row[3]) for row in out.rows)


class TestNestedLoopJoin:
    def test_theta_join(self):
        pred = Comparison("<", Col("l.k"), Col("r.k"))
        out = nested_loop_join(L, R, predicate=pred)
        assert sorted(out.rows) == [(1, "a", 3, 30), (2, "b", 3, 30)]

    def test_outer_variant_pads(self):
        pred = Comparison("<", Col("l.k"), Col("r.k"))
        out = nested_loop_join(L, R, predicate=pred, outer=True)
        padded = [row for row in out.rows if is_null(row[2])]
        assert len(padded) == 1  # the NULL-key left row


class TestEquivalences:
    """Hash-based and nested-loop implementations must agree."""

    def test_hash_vs_nested_loop(self):
        pred = Comparison("=", Col("l.k"), Col("r.k"))
        hash_out = hash_join(L, R, ["l.k"], ["r.k"])
        nl_out = nested_loop_join(L, R, predicate=pred)
        assert hash_out == nl_out

    def test_outer_hash_vs_outer_nested_loop(self):
        pred = Comparison("=", Col("l.k"), Col("r.k"))
        hash_out = left_outer_hash_join(L, R, ["l.k"], ["r.k"])
        nl_out = nested_loop_join(L, R, predicate=pred, outer=True)
        assert hash_out == nl_out

    def test_semijoin_is_distinct_projection_of_join(self):
        join = hash_join(L, R, ["l.k"], ["r.k"])
        semi = semi_join(L, R, ["l.k"], ["r.k"])
        left_width = len(L.schema)
        projected = {row[:left_width] for row in join.rows}
        assert set(semi.rows) == projected
