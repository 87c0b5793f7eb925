"""The bound forms the row engine's loops run on answer exactly like the
definitions they were compiled from.

* :meth:`SetPredicate.bind` vs :meth:`SetPredicate.evaluate` — every
  quantifier × θ × aggregate, constant and column LHS, NULL-heavy
  members with pk-NULL "empty" markers and mixed value kinds, under both
  logic modes: the same :class:`TriBool` object or the same exception.
* :func:`bind_join_key` vs :func:`row_group_key` — two rows get equal
  bound keys exactly when neither has a NULL key value and their
  ``row_group_key`` agree: NULL keys never match, ``1`` and ``1.0``
  share a bucket, ``True`` and ``1`` do not.
"""

from __future__ import annotations

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.linking import SetPredicate
from repro.engine.logic import logic_mode
from repro.engine.types import NULL, bind_join_key, row_group_key

THETAS = ["=", "<>", "!=", "<", "<=", ">", ">=", "~"]
AGG_FUNCS = ["count_star", "count", "sum", "avg", "min", "max", "median"]

values = st.one_of(
    st.just(NULL),
    st.just(NULL),
    st.integers(-3, 3),
    st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from(["", "a", "b"]),
    st.sampled_from([datetime.date(1994, 1, 1), datetime.date(1995, 6, 17)]),
    st.booleans(),
)
#: a member's pk: a live rid, or the NULL an outer join / σ* padded in
pks = st.one_of(st.just(NULL), st.integers(0, 5))
members = st.lists(st.tuples(values, pks), max_size=6)

predicates = st.one_of(
    st.sampled_from([SetPredicate("exists"), SetPredicate("not_exists")]),
    st.builds(
        SetPredicate, st.sampled_from(["some", "all"]), st.sampled_from(THETAS)
    ),
    st.builds(
        SetPredicate,
        st.just("agg"),
        st.sampled_from(THETAS),
        agg_func=st.sampled_from(AGG_FUNCS),
        const=st.one_of(st.none(), st.tuples(values)),
    ),
)


def outcome(fn):
    """What *fn* returned (the object itself: a TriBool is a singleton)
    or the type of what it raised."""
    try:
        return ("returned", fn())
    except Exception as exc:  # the property is about *which* one
        return ("raised", type(exc))


class TestBoundSetPredicate:
    @settings(max_examples=600, deadline=None)
    @given(
        predicate=predicates,
        lhs=values,
        group=members,
        logic=st.sampled_from(["3vl", "2vl"]),
    )
    def test_same_verdict_or_same_exception(self, predicate, lhs, group, logic):
        with logic_mode(logic):
            bound = outcome(lambda: predicate.bind()(lhs, group))
            defined = outcome(lambda: predicate.evaluate(lhs, group))
        assert bound[0] == defined[0]
        assert bound[1] is defined[1]

    @given(predicate=predicates)
    def test_binding_never_raises(self, predicate):
        """An unknown θ or aggregate fails per group, like ``evaluate``:
        a linking selection over an empty input stays silent."""
        predicate.bind()

    def test_logic_mode_is_read_when_bound(self):
        predicate = SetPredicate("all", "<>")
        group = [(NULL, 0)]
        with logic_mode("2vl"):
            two_valued = predicate.bind()
        with logic_mode("3vl"):
            three_valued = predicate.bind()
            assert three_valued(1, group) is predicate.evaluate(1, group)
            # a closure kept across a mode switch answers for its own mode
            assert two_valued(1, group) is not three_valued(1, group)

    def test_members_may_be_any_iterable_of_pairs(self):
        predicate = SetPredicate("some", "=")
        group = ((1, 0), (2, NULL))
        assert predicate.bind()(2, group) is predicate.evaluate(2, group)
        assert predicate.bind()(1, iter(group)) is predicate.evaluate(1, group)


key_rows = st.lists(values, min_size=3, max_size=3).map(tuple)
positions = st.sampled_from([(0,), (2,), (0, 1), (2, 0), (0, 1, 2)])


class TestBoundJoinKey:
    @settings(max_examples=600, deadline=None)
    @given(left=key_rows, right=key_rows, at=positions)
    def test_keys_match_exactly_when_the_group_keys_do(self, left, right, at):
        key_of = bind_join_key(at)
        left_values = [left[i] for i in at]
        right_values = [right[i] for i in at]
        joinable = (
            NULL not in left_values
            and NULL not in right_values
            and row_group_key(left_values) == row_group_key(right_values)
        )
        left_key, right_key = key_of(left), key_of(right)
        assert (left_key is None) == (NULL in left_values)
        assert (
            left_key is not None and left_key == right_key
            and hash(left_key) == hash(right_key)
        ) == joinable

    def test_the_corners_by_name(self):
        key_of = bind_join_key((0,))
        assert key_of((NULL,)) is None
        assert key_of((1,)) == key_of((1.0,))
        assert key_of((True,)) != key_of((1,))
        assert key_of((False,)) != key_of((0,))
        assert key_of(("1",)) != key_of((1,))
        pair_of = bind_join_key((0, 1))
        assert pair_of((1, NULL)) is None
        assert pair_of((1, 2.0)) == pair_of((1.0, 2))
        assert pair_of((1, True)) != pair_of((1, 1))
