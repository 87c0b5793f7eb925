"""Unit tests for linking predicates (Definition 4) and their 3VL
semantics — including every NULL corner the paper builds its case on."""

import pytest

from repro.core.linking import SetPredicate
from repro.engine.types import FALSE, NULL, TRUE, UNKNOWN
from repro.errors import ExpressionError


def members(*pairs):
    """(value, pk) members; pk defaults to a live marker."""
    out = []
    for p in pairs:
        if isinstance(p, tuple):
            out.append(p)
        else:
            out.append((p, 1))
    return out


class TestConstruction:
    def test_quantified_requires_theta(self):
        with pytest.raises(ExpressionError):
            SetPredicate("all")

    def test_unknown_quantifier(self):
        with pytest.raises(ExpressionError):
            SetPredicate("most")

    def test_describe(self):
        assert "ALL" in SetPredicate("all", ">").describe()
        assert "∅" in SetPredicate("exists").describe()


class TestAllSemantics:
    def test_vacuous_true_on_empty(self):
        assert SetPredicate("all", ">").evaluate(5, []) is TRUE

    def test_all_pass(self):
        assert SetPredicate("all", ">").evaluate(5, members(1, 2, 3)) is TRUE

    def test_one_fails(self):
        assert SetPredicate("all", ">").evaluate(5, members(1, 9)) is FALSE

    def test_paper_null_member_example(self):
        """R.A = 5 vs S.B = {2, 3, 4, null}: 5 > ALL is UNKNOWN (Section 2)."""
        pred = SetPredicate("all", ">")
        assert pred.evaluate(5, members(2, 3, 4, NULL)) is UNKNOWN

    def test_false_beats_unknown(self):
        assert SetPredicate("all", ">").evaluate(5, members(NULL, 9)) is FALSE

    def test_null_lhs_nonempty_unknown(self):
        assert SetPredicate("all", ">").evaluate(NULL, members(1)) is UNKNOWN

    def test_null_lhs_empty_still_true(self):
        """Paper Example 1, tuples four and five: a NULL linking value
        passes a negative predicate when the set is empty."""
        assert SetPredicate("all", ">").evaluate(NULL, []) is TRUE


class TestSomeSemantics:
    def test_vacuous_false_on_empty(self):
        assert SetPredicate("some", "=").evaluate(5, []) is FALSE

    def test_one_match(self):
        assert SetPredicate("some", "=").evaluate(5, members(1, 5)) is TRUE

    def test_no_match(self):
        assert SetPredicate("some", "=").evaluate(5, members(1, 2)) is FALSE

    def test_null_member_unknown(self):
        assert SetPredicate("some", "=").evaluate(5, members(1, NULL)) is UNKNOWN

    def test_true_beats_unknown(self):
        assert SetPredicate("some", "=").evaluate(5, members(NULL, 5)) is TRUE


class TestExistsSemantics:
    def test_nonempty(self):
        assert SetPredicate("exists").evaluate(NULL, members(1)) is TRUE

    def test_empty(self):
        assert SetPredicate("exists").evaluate(NULL, []) is FALSE

    def test_not_exists(self):
        assert SetPredicate("not_exists").evaluate(NULL, []) is TRUE
        assert SetPredicate("not_exists").evaluate(NULL, members(1)) is FALSE

    def test_exists_is_two_valued_even_with_null_members(self):
        assert SetPredicate("exists").evaluate(NULL, members(NULL)) is TRUE


class TestPkMarkerFiltering:
    """Members whose pk is NULL are empty markers from outer joins and
    must be excluded before evaluation (paper Example 1)."""

    def test_dead_members_ignored(self):
        pred = SetPredicate("all", ">")
        assert pred.evaluate(5, [(9, NULL)]) is TRUE  # set is empty

    def test_dead_and_live_mixed(self):
        pred = SetPredicate("all", ">")
        assert pred.evaluate(5, [(9, NULL), (1, 7)]) is TRUE

    def test_exists_sees_through_markers(self):
        assert SetPredicate("exists").evaluate(NULL, [(NULL, NULL)]) is FALSE

    def test_null_value_with_live_pk_counts(self):
        """A genuine NULL member (live pk) differs from an empty marker:
        this is exactly what distinguishes {NULL} from ∅."""
        pred = SetPredicate("all", ">")
        assert pred.evaluate(5, [(NULL, 3)]) is UNKNOWN


#: Every linking operator, as (quantifier, theta) for SetPredicate.
#: IN is = SOME and NOT IN is <> ALL after normalization; the θ SOME/ALL
#: rows use a non-equality theta so the matrix covers both spellings.
ALL_OPERATORS = [
    pytest.param("exists", None, id="EXISTS"),
    pytest.param("not_exists", None, id="NOT-EXISTS"),
    pytest.param("some", "=", id="IN"),
    pytest.param("all", "<>", id="NOT-IN"),
    pytest.param("some", "<", id="theta-SOME"),
    pytest.param("all", ">=", id="theta-ALL"),
]


class TestEmptyVersusNullOnlySet:
    """The distinction the pk-is-NULL convention exists to preserve:
    after a left outer join, an empty inner set {B}=∅ arrives as a single
    dead member (pk NULL) while a genuine {NULL} set has a live pk.  The
    two must evaluate differently for every linking operator — collapsing
    them is exactly the classical COUNT-rewrite bug (paper Section 2)."""

    EMPTY_SHAPES = [[], [(NULL, NULL)], [(7, NULL), (NULL, NULL)]]

    @pytest.mark.parametrize("quantifier,theta", ALL_OPERATORS)
    @pytest.mark.parametrize("lhs", [5, NULL], ids=["lhs=5", "lhs=NULL"])
    def test_empty_set_is_decided_two_valued(self, quantifier, theta, lhs):
        """Over ∅ every operator is decided — TRUE for the negative ones
        (vacuous ALL / NOT EXISTS), FALSE for the positive ones — even
        when the linking value itself is NULL (paper Example 1)."""
        pred = SetPredicate(quantifier, theta)
        expected = TRUE if pred.is_negative else FALSE
        for shape in self.EMPTY_SHAPES:
            assert pred.evaluate(lhs, shape) is expected

    @pytest.mark.parametrize("quantifier,theta", ALL_OPERATORS)
    def test_null_only_set_differs_from_empty(self, quantifier, theta):
        """{NULL} (live pk) is NOT the empty set: EXISTS/NOT EXISTS see a
        member, and every quantified comparison against it is UNKNOWN."""
        pred = SetPredicate(quantifier, theta)
        null_only = [(NULL, 1)]
        if quantifier == "exists":
            assert pred.evaluate(5, null_only) is TRUE
        elif quantifier == "not_exists":
            assert pred.evaluate(5, null_only) is FALSE
        else:
            assert pred.evaluate(5, null_only) is UNKNOWN
            assert pred.evaluate(NULL, null_only) is UNKNOWN
        # ... and never equals the ∅ outcome
        assert pred.evaluate(5, null_only) is not pred.evaluate(5, [])

    @pytest.mark.parametrize("quantifier,theta", ALL_OPERATORS)
    def test_dead_markers_never_change_live_outcome(self, quantifier, theta):
        """Adding outer-join padding members to a live set is a no-op."""
        pred = SetPredicate(quantifier, theta)
        live = [(2, 1), (NULL, 2)]
        padded = live + [(NULL, NULL), (9, NULL)]
        assert pred.evaluate(4, padded) is pred.evaluate(4, live)


class TestNegativity:
    def test_is_negative(self):
        assert SetPredicate("all", ">").is_negative
        assert SetPredicate("not_exists").is_negative
        assert not SetPredicate("some", "=").is_negative
        assert not SetPredicate("exists").is_negative
