"""The fused leaf edge equals the pair it replaces.

At a leaf edge Algorithm 1 outer-joins a block down (⟕) and nests it
straight back up (υ plus the linking σ, σ* or mark).  The vector backend
runs that pair as one call, :func:`repro.engine.vector.nestlink.join_nest`,
which never builds the joined batch.  Everything an observer can see
must be what ``nest_link(left_outer_hash_join(L, R, …), nest)``
produces:

* the output batch — schema, kinds, dtypes, values, validity and
  ``batch_nbytes``;
* the ``Metrics`` totals;
* the span multiset — names, kinds, attrs, every span counter and each
  span's ``Metrics`` delta;
* the governor's account — ``reserved`` after every charge and release,
  in order, and ``peak_bytes``.

Inputs are NULL-heavy (member rids included), PK-less or
duplicate-keyed, with empty sides and all-NULL join keys, every link
kind, strict σ / σ* / marks, no, one or two equi-key columns, with and
without a join residual (``<>`` on ints, strings or booleans in either
orientation, a conjunction, a right-only filter), under 3VL and 2VL;
under a spilling budget, both the join-spills and the
only-the-nest-would case take the ordinary pair.  An existential edge
counts its members and never forms a pair; every other edge still
does.  A *keyed* edge — left rids unique, and the plan says so —
groups nothing, and all of the above holds for it too.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.blocks import LinkSpec
from repro.core.compute import set_predicate_for
from repro.core.query_tree import NestLink, OuterJoin
from repro.engine import NULL, Column, Schema
from repro.engine.expressions import And, Col, Comparison, Literal
from repro.engine.governor import ResourceGovernor, batch_nbytes, governed
from repro.engine.logic import logic_mode
from repro.engine.metrics import collect
from repro.engine.spill import est_join_bytes, est_nest_bytes
from repro.engine.trace import tracing
from repro.engine.vector import Batch, Vector, kernels, nestlink
from repro.engine.vector.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJ,
    KIND_STR,
)

#: far above anything these inputs charge: accounting on, never binding
NON_BINDING_MB = 4096
MARK = "_mark1"
NOTHING = np.empty(0, dtype=np.int64)


class RecordingGovernor(ResourceGovernor):
    """A governor that logs ``(what, reserved)`` after every charge and
    release."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = []

    def charge(self, n_bytes, what="allocation"):
        try:
            super().charge(n_bytes, what)
        finally:
            self.log.append((what, self.reserved_bytes))

    def release(self, n_bytes):
        super().release(n_bytes)
        self.log.append(("release", self.reserved_bytes))


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def make_batch(table, cols):
    names = list(cols)
    return Batch(
        Schema([Column(n, table=table) for n in names]),
        [Vector.from_values(cols[n]) for n in names],
        len(cols[names[0]]),
    )


@st.composite
def edge_inputs(draw, left_keys=("pk", "pk-less", "duplicate")):
    """``(left, right)``: the accumulated relation and a leaf's T_i.
    *left_keys* are the ways the left rids may be drawn: unique
    (``"pk"``), repeating and NULL, or whole rows repeated."""
    shape = draw(
        st.sampled_from(
            ["plain", "empty-left", "empty-right", "all-null-keys"]
        )
    )
    keyed = draw(st.sampled_from(left_keys))
    nulls = draw(st.booleans())
    wide = draw(st.booleans())
    nl = draw(st.integers(1, 9))
    nr = draw(st.integers(1, 9))
    value = st.one_of(st.just(NULL), st.integers(0, 4)) if nulls else (
        st.integers(0, 4)
    )
    key = st.just(NULL) if shape == "all-null-keys" else value

    def ints(n, values):
        return draw(st.lists(values, min_size=n, max_size=n))

    def strings(n, prefix):
        stem = f"{prefix}-wide-string-" if wide else prefix
        return [
            NULL if nulls and i % 3 == 1 else f"{stem}{v}"
            for i, v in enumerate(ints(n, st.integers(0, 3)))
        ]

    if keyed == "pk":
        rids = list(range(nl))
    else:
        # PK-less: a rid that repeats and (NULL-heavy) may be NULL, as
        # after a σ* above padded the enclosing block
        rids = ints(nl, value)
    left = {
        "_rid0": rids,
        "k": ints(nl, key),
        "j": ints(nl, st.one_of(st.just(NULL), st.integers(0, 1))),
        "a": ints(nl, value),
        "s": strings(nl, "l"),
        "f": [NULL if v is NULL else v / 2 for v in ints(nl, value)],
        "g": [NULL if v is NULL else v % 2 == 0 for v in ints(nl, value)],
        # a mixed column: the ``obj`` layout
        "o": [
            NULL if v is NULL else (v if v % 2 else f"o{v}")
            for v in ints(nl, value)
        ],
    }
    if keyed == "duplicate":
        # whole left rows repeated: duplicate keys with equal values
        left = {c: vs + vs[: max(1, nl // 2)] for c, vs in left.items()}
    right = {
        "k": ints(nr, key),
        "j": ints(nr, st.one_of(st.just(NULL), st.integers(0, 1))),
        "b": ints(nr, value),
        "t": strings(nr, "r"),
        "h": [NULL if v is NULL else v % 2 == 1 for v in ints(nr, value)],
        # a NULL member rid: the right row pairs, but is no member
        "_rid1": [
            NULL if nulls and i % 4 == 3 else i for i in range(nr)
        ],
    }
    left, right = make_batch("l", left), make_batch("r", right)
    # an empty side is a typed batch filtered to nothing, as in the
    # engine: an empty string column keeps its width
    if shape == "empty-left":
        left = left.take(NOTHING)
    if shape == "empty-right":
        right = right.take(NOTHING)
    return left, right


LINKS = {
    "exists": LinkSpec("exists"),
    "not_exists": LinkSpec("not_exists"),
    **{
        f"some{theta}": LinkSpec("some", "l.a", theta, "r.b")
        for theta in ("=", "<>", "<")
    },
    **{
        f"all{theta}": LinkSpec("all", "l.a", theta, "r.b")
        for theta in ("<>", ">=")
    },
    "count_star": LinkSpec("agg", "l.a", "=", None, "count_star"),
    "count": LinkSpec("agg", "l.a", "<", "r.b", "count"),
    "sum": LinkSpec("agg", "l.a", ">=", "r.b", "sum"),
    "min": LinkSpec("agg", None, "<>", "r.b", "min", outer_const=(2,)),
}

RESIDUALS = {
    "none": None,
    "both-sides": Comparison("<>", Col("l.a"), Col("r.b")),
    "inner-first": Comparison("<>", Col("r.b"), Col("l.a")),
    "strings": Comparison("<>", Col("l.s"), Col("r.t")),
    "booleans": Comparison("<>", Col("r.h"), Col("l.g")),
    "conjunction": And(
        Comparison("<>", Col("l.a"), Col("r.b")),
        Comparison(">", Col("r.b"), Literal(1)),
    ),
    "right-only": Comparison(">", Col("r.b"), Literal(1)),
}

#: the equi keys of a leaf edge: none (a residual-only ⟕), one column,
#: or two
KEYS = {
    "none": ((), ()),
    "one": (("l.k",), ("r.k",)),
    "two": (("l.k", "l.j"), ("r.k", "r.j")),
}


def plan_nodes(
    left, link, selection, keys, residual, key, nest_impl, keyed=False
):
    """The :class:`OuterJoin` and :class:`NestLink` a leaf edge gets;
    *keyed* claims that no two left rows agree on *key*."""
    by = left.schema.names
    if selection == "mark":
        link = LinkSpec(**{**link.__dict__, "mark": MARK})
    outer_keys, inner_keys = KEYS[keys]
    join = OuterJoin(
        outer_keys,
        inner_keys,
        residual,
        by + ("r.k", "r.j", "r.b", "r.t", "r.h", "r._rid1"),
    )
    nest = NestLink(
        predicate=set_predicate_for(link),
        link=link,
        rid_ref="r._rid1",
        strict=selection == "strict",
        pad_refs=("l._rid0", "l.a", "l.s") if selection == "pseudo" else (),
        by=by,
        key=key,
        keep=("r.b", "r._rid1"),
        nest_impl=nest_impl,
        names=by + ((MARK,) if selection == "mark" else ()),
        keyed=keyed,
    )
    return join, nest


# --------------------------------------------------------------------- #
# Observation
# --------------------------------------------------------------------- #


def batch_form(batch):
    return {
        "schema": tuple(batch.schema.columns),
        "length": len(batch),
        "columns": [
            (c.kind, c.data.dtype.str, c.data.tolist(), c.valid.tolist())
            for c in batch.columns
        ],
        "nbytes": batch_nbytes(batch),
    }


def span_multiset(trace):
    return Counter(
        (
            span.name,
            span.kind,
            tuple(sorted((k, str(v)) for k, v in span.attrs.items())),
            tuple(sorted(span.counters.items())),
            tuple(sorted(span.metrics_inclusive.items())),
        )
        for span in trace.spans()
    )


def observe(run, logic, governor):
    with logic_mode(logic), collect() as metrics, tracing() as trace:
        with governed(governor):
            out = run()
    return {
        "batch": batch_form(out),
        "metrics": metrics.snapshot(),
        "spans": span_multiset(trace),
        "charges": list(governor.log),
        "peak_bytes": governor.peak_bytes,
    }


def fused(left, right, join, nest):
    return lambda: nestlink.join_nest(left, right, join, nest)


def pair(left, right, join, nest):
    return lambda: nestlink.nest_link(
        kernels.left_outer_hash_join(
            left, right, join.outer_keys, join.inner_keys, join.residual
        ),
        nest,
    )


def compare(left, right, join, nest, logic, make_governor):
    got = observe(fused(left, right, join, nest), logic, make_governor())
    want = observe(pair(left, right, join, nest), logic, make_governor())
    assert got == want
    return got


# --------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------- #

PROPERTY = settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@PROPERTY
@given(
    edge_inputs(),
    st.sampled_from(sorted(LINKS)),
    st.sampled_from(["strict", "pseudo", "mark"]),
    st.sampled_from(sorted(RESIDUALS)),
    st.sampled_from(sorted(KEYS)),
    st.sampled_from([("l._rid0",), ("l._rid0", "l.k")]),
    st.sampled_from(["hash", "sorted"]),
    st.sampled_from(["3vl", "2vl"]),
)
def test_join_nest_equals_nest_link_of_the_built_join(
    inputs, link, selection, residual, keys, key, nest_impl, logic
):
    left, right = inputs
    residual = RESIDUALS[residual]
    if keys == "none" and residual is None:
        keys = "one"  # the keyless ⟕ without a residual is the outer ×
    join, nest = plan_nodes(
        left, LINKS[link], selection, keys, residual, key, nest_impl
    )
    compare(
        left, right, join, nest, logic,
        lambda: RecordingGovernor(memory_limit_mb=NON_BINDING_MB),
    )


def refuse_grouping(*args):
    raise AssertionError("a keyed leaf edge grouped its members")


@PROPERTY
@given(
    edge_inputs(left_keys=("pk",)),
    st.sampled_from(sorted(LINKS)),
    st.sampled_from(["strict", "pseudo", "mark"]),
    st.sampled_from(sorted(RESIDUALS)),
    st.sampled_from(sorted(KEYS)),
    st.sampled_from([("l._rid0",), ("l._rid0", "l.k")]),
    st.sampled_from(["hash", "sorted"]),
    st.sampled_from(["3vl", "2vl"]),
)
def test_a_keyed_join_nest_equals_nest_link_of_the_built_join(
    inputs, link, selection, residual, keys, key, nest_impl, logic
):
    """The property over left relations unique on the key, with the
    plan's ``keyed`` set: each left row is one group, read off the pair
    index or the counts, and nothing is grouped on the key."""
    left, right = inputs
    residual = RESIDUALS[residual]
    if keys == "none" and residual is None:
        keys = "one"
    join, nest = plan_nodes(
        left, LINKS[link], selection, keys, residual, key, nest_impl,
        keyed=True,
    )
    governor = lambda: RecordingGovernor(memory_limit_mb=NON_BINDING_MB)
    want = observe(pair(left, right, join, nest), logic, governor())
    with mock.patch.object(
        nestlink, "dense_group_ids", refuse_grouping
    ), mock.patch.object(nestlink, "first_occurrences", refuse_grouping):
        got = observe(fused(left, right, join, nest), logic, governor())
    assert got == want


# --------------------------------------------------------------------- #
# Existential edges count; every other edge pairs
# --------------------------------------------------------------------- #

#: the residuals an EXISTS / NOT EXISTS edge counts under
COUNTED = ["none", "both-sides", "inner-first", "strings", "booleans"]


def refuse_pairs(*args):
    raise AssertionError("the counting path formed pairs")


def compare_without_pairs(left, right, join, nest, logic):
    """``join_nest`` equals the pair with the equi-join matcher gone."""
    governor = lambda: RecordingGovernor(memory_limit_mb=NON_BINDING_MB)
    want = observe(pair(left, right, join, nest), logic, governor())
    with mock.patch.object(kernels, "probe_match", refuse_pairs):
        got = observe(fused(left, right, join, nest), logic, governor())
    assert got == want


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    edge_inputs(),
    st.sampled_from(["exists", "not_exists"]),
    st.sampled_from(["strict", "pseudo", "mark"]),
    st.sampled_from(COUNTED),
    st.sampled_from(["one", "two"]),
    st.sampled_from([("l._rid0",), ("l._rid0", "l.k")]),
    st.sampled_from(["hash", "sorted"]),
    st.sampled_from(["3vl", "2vl"]),
)
def test_an_existential_edge_never_forms_a_pair(
    inputs, link, selection, residual, keys, key, nest_impl, logic
):
    left, right = inputs
    residual = RESIDUALS[residual]
    if residual is not None:
        # an all-NULL column is drawn as ``i8``; mixed kinds keep the pairs
        kinds = {
            side.column(ref).kind
            for side in (left, right)
            for ref in residual.columns()
            if side.schema.has(ref)
        }
        assume(len(kinds) == 1)
    join, nest = plan_nodes(
        left, LINKS[link], selection, keys, residual, key, nest_impl
    )
    compare_without_pairs(left, right, join, nest, logic)


def fixed_inputs():
    """NULL-heavy, duplicate-keyed and deterministic, with the operand
    kinds that keep the pairs: ``f8`` on both sides and an ``obj``
    column of ints past float precision."""
    nl, nr = 12, 20
    left = make_batch(
        "l",
        {
            "_rid0": list(range(nl)),
            "k": [NULL if i % 5 == 3 else i % 4 for i in range(nl)],
            "a": [NULL if i % 4 == 1 else i % 3 for i in range(nl)],
            "s": [NULL if i % 6 == 2 else f"s{i % 3}" for i in range(nl)],
            "f": [NULL if i % 7 == 0 else i / 2 for i in range(nl)],
            "o": [NULL if i % 3 == 0 else 2 ** 70 + i % 2 for i in range(nl)],
        },
    )
    right = make_batch(
        "r",
        {
            "k": [NULL if i % 8 == 5 else i % 5 for i in range(nr)],
            "b": [NULL if i % 3 == 2 else i % 4 for i in range(nr)],
            "e": [NULL if i % 5 == 2 else i / 4 for i in range(nr)],
            "_rid1": list(range(nr)),
        },
    )
    return left, right


#: a leaf edge that must still form its pairs: ``(link, residual)``
KEPT_PAIRS = {
    "in": ("some=", None),
    "not-in": ("all<>", None),
    "some": ("some<", RESIDUALS["both-sides"]),
    "all": ("all>=", None),
    "aggregate": ("count", RESIDUALS["both-sides"]),
    "ordered-theta": ("exists", Comparison("<", Col("l.a"), Col("r.b"))),
    "conjunction": ("not_exists", RESIDUALS["conjunction"]),
    "right-only": ("exists", RESIDUALS["right-only"]),
    "f8": ("exists", Comparison("<>", Col("l.f"), Col("r.e"))),
    "obj": ("not_exists", Comparison("<>", Col("l.o"), Col("r.b"))),
    "mixed-kinds": ("exists", Comparison("<>", Col("r.b"), Col("l.f"))),
}


@pytest.mark.parametrize("case", sorted(KEPT_PAIRS))
def test_every_other_edge_still_pairs(case):
    link, residual = KEPT_PAIRS[case]
    left, right = fixed_inputs()
    join, nest = plan_nodes(
        left, LINKS[link], "pseudo", "one", residual, ("l._rid0",), "sorted"
    )
    with mock.patch.object(
        kernels, "probe_match", wraps=kernels.probe_match
    ) as matcher:
        compare(
            left, right, join, nest, "3vl",
            lambda: RecordingGovernor(memory_limit_mb=NON_BINDING_MB),
        )
    # once for join_nest, once for the pair it is compared with
    assert matcher.call_count == 2


#: operand values per counted kind
COUNTED_VALUES = {
    KIND_INT: lambda rng, n: [int(v) for v in rng.integers(-3, n, n)],
    KIND_STR: lambda rng, n: [f"v{v}" for v in rng.integers(0, n, n)],
    KIND_BOOL: lambda rng, n: [bool(v) for v in rng.integers(0, 2, n)],
}


@pytest.mark.parametrize("n", [12, 400])
@pytest.mark.parametrize("kind", sorted(COUNTED_VALUES))
def test_match_counts_counts_the_pairs(kind, n):
    """Against a count over every pair, with NULL keys and operands; at
    400 rows a side the (key, operand) domain outgrows the direct
    ``bincount`` table and is densified first."""
    rng = np.random.default_rng(n)

    def column(values):
        return [NULL if rng.random() < 0.2 else v for v in values]

    sides = [
        {
            "k": column(int(v) for v in rng.integers(0, n // 2, n)),
            "x": column(COUNTED_VALUES[kind](rng, n)),
        }
        for _ in range(2)
    ]
    left, right = make_batch("l", sides[0]), make_batch("r", sides[1])
    live = rng.random(n) < 0.8
    index = kernels.build_index(right, ["r.k"])
    probe = index.probe(left, ["l.k"]), index
    for operands in ((), ("l.x", "r.x")):
        want = [
            sum(
                live[j]
                and k is not NULL
                and k == sides[1]["k"][j]
                and (
                    not operands
                    or NULL not in (x, sides[1]["x"][j])
                    and x != sides[1]["x"][j]
                )
                for j in range(n)
            )
            for k, x in zip(sides[0]["k"], sides[0]["x"])
        ]
        got = kernels.match_counts(
            left, right, (["l.k"], ["r.k"]), probe, operands, live
        )
        assert got.tolist() == want


# --------------------------------------------------------------------- #
# Under a spilling budget: both fall back to the built join
# --------------------------------------------------------------------- #


def spill_inputs():
    """Deterministic and spillable (no ``obj`` column).  The right side
    is the larger and mostly unmatched, so the join's estimate
    (``max(|L|, |R|)`` output rows) exceeds what it really charges, and
    N1 is wide enough that the nest's estimate exceeds the join's."""
    nl, nr = 24, 120
    left = make_batch(
        "l",
        {
            "_rid0": list(range(nl)),
            "k": [NULL if i % 11 == 5 else i % 30 for i in range(nl)],
            "a": [NULL if i % 6 == 1 else i % 5 for i in range(nl)],
            "s": [f"left-wide-string-{i % 4}" for i in range(nl)],
            "f": [i / 4 for i in range(nl)],
            "g": [i % 3 == 0 for i in range(nl)],
        },
    )
    right = make_batch(
        "r",
        {
            "k": [NULL if i % 9 == 2 else i for i in range(nr)],
            "b": [NULL if i % 5 == 3 else i % 6 for i in range(nr)],
            "t": [f"t{i % 3}" for i in range(nr)],
            "_rid1": list(range(nr)),
        },
    )
    return left, right


def budget_mb(n_bytes: int) -> float:
    """A budget of exactly *n_bytes* (scaling by 2**20 is exact)."""
    return n_bytes / (1024 * 1024)


@pytest.mark.parametrize("link", ["all>=", "not_exists"])
@pytest.mark.parametrize("spills", ["join", "nest-only"])
def test_a_spilling_budget_takes_the_ordinary_pair(spills, link):
    check_the_spilling_budget(spills, link, keyed=False)


@pytest.mark.parametrize("link", ["all>=", "not_exists"])
@pytest.mark.parametrize("spills", ["join", "nest-only"])
def test_a_keyed_edge_under_a_spilling_budget_takes_the_ordinary_pair(
    spills, link
):
    check_the_spilling_budget(spills, link, keyed=True)


def check_the_spilling_budget(spills, link, keyed):
    left, right = spill_inputs()
    join, nest = plan_nodes(
        left, LINKS[link], "pseudo", "one", RESIDUALS["both-sides"],
        ("l._rid0",), "sorted", keyed,
    )
    # what the in-memory join reserves, under a non-binding budget
    probe = observe(
        pair(left, right, join, nest), "3vl",
        RecordingGovernor(memory_limit_mb=NON_BINDING_MB),
    )
    after_join = dict(probe["charges"])["outer-join output"]
    est_join = est_join_bytes(left, right, 1)
    est_nest = est_nest_bytes(probe["metrics"]["rows_nested"], len(nest.by))
    if spills == "join":
        limit = est_join - 1
    else:
        limit = max(est_join, after_join)
        assert after_join + est_nest > limit
    with tempfile.TemporaryDirectory(prefix="nest-join-") as spill_dir:
        got = compare(
            left, right, join, nest, "3vl",
            lambda: RecordingGovernor(
                memory_limit_mb=budget_mb(limit), spill_dir=spill_dir
            ),
        )
    names = {span[0] for span in got["spans"]}
    assert ("spill-outer-hash-join" in names) == (spills == "join")
    assert ("spill-nest" in names) == (spills == "nest-only")


# --------------------------------------------------------------------- #
# The logical charge
# --------------------------------------------------------------------- #


KIND_VALUES = {
    KIND_INT: [3, NULL, 1],
    KIND_FLOAT: [0.5, NULL, 2.0],
    KIND_BOOL: [True, NULL, False],
    "narrow-" + KIND_STR: ["ab", NULL, "c"],
    "wide-" + KIND_STR: ["a string wider than eight bytes", NULL, "x"],
    KIND_OBJ: [1, NULL, "mixed"],
}


def kind_batch(table, n, kinds):
    """*n* rows of each kind; an empty batch is a typed batch filtered
    to nothing, as in the engine (not an ``i8`` column of no values)."""
    m = max(n, 3)
    cols = {
        f"c{i}": [KIND_VALUES[kind][j % 3] for j in range(m)]
        for i, kind in enumerate(kinds)
    }
    cols["k"] = [j % 2 for j in range(m)]
    batch = make_batch(table, cols)
    return batch if n else batch.take(NOTHING)


@pytest.mark.parametrize("n_right", [0, 1, 5])
@pytest.mark.parametrize("kind", sorted(KIND_VALUES))
def test_the_charge_is_the_built_joins_nbytes(kind, n_right):
    """Every kind on either side, an empty right side (whose columns pad
    with :meth:`Vector.nulls` layouts: ``U1`` for any string width)."""
    left = kind_batch("l", 4, [kind, KIND_INT])
    right = kind_batch("r", n_right, [kind])
    built = kernels.left_outer_hash_join(left, right, ["l.k"], ["r.k"])
    assert kernels.outer_join_nbytes(left, right, len(built)) == (
        batch_nbytes(built)
    )


def test_the_charge_of_a_memory_mapped_side(tmp_path):
    """Mapped inputs are not charged, but their gathers are heap arrays."""
    left = kind_batch("l", 6, ["wide-" + KIND_STR, KIND_INT])
    mapped = []
    for i, vec in enumerate(left.columns):
        path = os.path.join(tmp_path, f"c{i}.npy")
        np.save(path, vec.data, allow_pickle=False)
        mapped.append(
            Vector(vec.kind, np.load(path, mmap_mode="r"), vec.valid)
        )
    left = Batch(left.schema, mapped, len(left))
    assert batch_nbytes(left) == 0
    right = kind_batch("r", 3, [KIND_FLOAT])
    built = kernels.left_outer_hash_join(left, right, ["l.k"], ["r.k"])
    assert kernels.outer_join_nbytes(left, right, len(built)) == (
        batch_nbytes(built)
    )
