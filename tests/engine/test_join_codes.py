"""The equi-join matcher equals its sorting definition, byte for byte.

The vector engine builds an equi-join's right side once per batch and
key — a :class:`~repro.engine.vector.kernels.BuildIndex`: per-column
dictionaries (a presence-table lookup for a dense ``i8`` domain, sorted
values otherwise), composite folds, and a per-code offset table — and
answers every probe from it.  Its definition is the sorting matcher it
replaced, kept here as reference code with its own copy of the key-kind
rule: ``np.unique`` over the concatenated keys of both sides (and over
every composite-key fold), a stable sort of the build side that every
probe binary-searches twice, and a ``cumsum`` presence-table
renumbering.  The two must agree exactly:

* the ``(li, ri)`` pair index — the same pairs in the same order — per
  probe morsel, and for one kept index probed by left sides of every
  kind in turn;
* every join of the family — inner, left outer (built, and as its pair
  index), semi, anti — computed by the reference from those pairs;
* key codes as key equality: two rows share a code exactly when their
  keys are equal and non-NULL, so the spill path's partitions keep
  matching rows together.

The join family's key semantics are also pinned against the row
engine's hash joins, on every key-kind combination, in memory and
spilled to disk (``TestProbeCodes``, ``TestExactKindMatrix``).

A build index ranks every ``i8`` column and composite fold whose domain
is at most ``BUILD_LUT_WIDTH`` (or ``4n + 1024``) wide through a lookup
table; ``TestBuildLut`` pins those lookups against the same reference,
with NULL components on either side and fold domains at the bound.

Inputs: ``i8`` keys with negative values and the int64 extremes, domains
on both sides of the ``4n + 1024`` presence-table threshold, 1–3 column
composite keys with ints next to floats (which take the float path, or
go per row past 2**53), strings and booleans, empty and all-NULL sides,
and probe keys absent from the build side.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine import NULL, Column, Schema, spill
from repro.engine.colstore import load_stored_database
from repro.engine.expressions import Col, Comparison
from repro.engine.governor import governed
from repro.engine.operators import (
    anti_join,
    hash_join,
    left_outer_hash_join,
    semi_join,
)
from repro.engine.vector import Batch, Vector, kernels
from repro.engine.vector.column import KIND_BOOL, KIND_FLOAT, KIND_INT, KIND_STR
from repro.engine.vector.exprs import eval_truth
from repro.tpch import TpchConfig, generate_stored

from .test_spill_partitions import forced_spill

I64_MIN, I64_MAX = -(2 ** 63), 2 ** 63 - 1

# --------------------------------------------------------------------- #
# Reference definitions: the sorting matcher
# --------------------------------------------------------------------- #


def ref_unique_kind(a: Vector, b: Vector):
    """The layout ``np.unique`` factorizes two key columns on exactly,
    or None when only per-row ``group_key`` normalization is exact."""
    if a.kind == b.kind and a.kind in (KIND_INT, KIND_BOOL, KIND_STR):
        return a.kind
    if a.kind in (KIND_INT, KIND_FLOAT) and b.kind in (KIND_INT, KIND_FLOAT):
        for v in (a, b):
            if v.kind == KIND_INT:
                live = v.data[v.valid]
                # past float64 precision next to a float: per row
                if len(live) and np.abs(live).max() >= 2 ** 53:
                    return None
        return KIND_FLOAT
    return None


def ref_column_codes(a: Vector, b: Vector) -> Tuple[np.ndarray, np.ndarray]:
    kind = ref_unique_kind(a, b)
    if kind is None:
        mapping: dict = {}
        inv = np.array(
            [
                mapping.setdefault(key, len(mapping))
                for key in a.join_keys() + b.join_keys()
            ],
            dtype=np.int64,
        )
    else:
        if kind == KIND_FLOAT:
            values = [a.data.astype(np.float64), b.data.astype(np.float64)]
        else:
            values = [a.data, b.data]
        _, inv = np.unique(np.concatenate(values), return_inverse=True)
        inv = np.asarray(inv, dtype=np.int64).reshape(-1)
    return inv[: len(a)], inv[len(a) :]


def ref_joint_codes(left, right, left_keys, right_keys):
    nl, nr = len(left), len(right)
    codes_l = np.zeros(nl, dtype=np.int64)
    codes_r = np.zeros(nr, dtype=np.int64)
    null_l = np.zeros(nl, dtype=bool)
    null_r = np.zeros(nr, dtype=bool)
    for i, (lk, rk) in enumerate(zip(left_keys, right_keys)):
        a, b = left.column(lk), right.column(rk)
        ci, cr = ref_column_codes(a, b)
        if i == 0:
            codes_l, codes_r = ci, cr
        else:
            width = int(max(ci.max(initial=0), cr.max(initial=0))) + 1
            combined = np.concatenate(
                [codes_l * width + ci, codes_r * width + cr]
            )
            _, inv = np.unique(combined, return_inverse=True)
            inv = np.asarray(inv, dtype=np.int64).reshape(-1)
            codes_l, codes_r = inv[:nl], inv[nl:]
        null_l |= ~a.valid
        null_r |= ~b.valid
    codes_l = np.where(null_l, np.int64(-1), codes_l)
    codes_r = np.where(null_r, np.int64(-1), codes_r)
    return codes_l, codes_r


def ref_build_side(codes_r):
    build = np.flatnonzero(codes_r >= 0)
    order = np.argsort(codes_r[build], kind="stable")
    build_rows = build[order]
    return codes_r[build_rows], build_rows


def ref_probe_match(sorted_codes, build_rows, probe_codes):
    if len(build_rows) == 0 or len(probe_codes) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    lo = np.searchsorted(sorted_codes, probe_codes, side="left")
    hi = np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    li = np.repeat(np.arange(len(probe_codes), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    ri = build_rows[np.repeat(lo, counts) + within]
    return li, ri


def ref_renumbering(codes, width):
    if width <= 4 * len(codes) + 1024:
        present = np.zeros(width, dtype=bool)
        present[codes] = True
        remap = np.cumsum(present, dtype=np.int64) - 1
        return remap[codes], int(remap[-1]) + 1
    uniq, inv = np.unique(codes, return_inverse=True)
    return np.asarray(inv, dtype=np.int64).reshape(-1), len(uniq)


def ref_pairs(left, right, left_keys, right_keys, residual=None):
    """The matched ``(li, ri)`` of the sorting matcher, filtered by the
    *residual* judged over every column of the candidate pairs."""
    codes_l, codes_r = ref_joint_codes(left, right, left_keys, right_keys)
    li, ri = ref_probe_match(*ref_build_side(codes_r), codes_l)
    if residual is not None and len(li):
        keep, _f = eval_truth(
            residual, Batch.concat_columns(left.take(li), right.take(ri))
        )
        li, ri = li[keep], ri[keep]
    return li, ri


def ref_join(join, left, right, left_keys, right_keys, residual):
    """What *join* (a kernel name, or ``"index"`` for the left outer
    join's pair index) returns, built from :func:`ref_pairs`."""
    li, ri = ref_pairs(left, right, left_keys, right_keys, residual)
    matched = np.zeros(len(left), dtype=bool)
    matched[li] = True
    if join == "hash_join":
        return Batch.concat_columns(left.take(li), right.take(ri))
    if join == "semi_join":
        return left.take(np.flatnonzero(matched))
    if join == "anti_join":
        return left.take(np.flatnonzero(~matched))
    pad = np.flatnonzero(~matched)
    all_li = np.concatenate([li, pad])
    all_ri = np.concatenate([ri, np.full(len(pad), -1, dtype=np.int64)])
    if join == "index":
        return all_li, all_ri
    return Batch.concat_columns(left.take(all_li), right.take_padded(all_ri))


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

#: each key column's ``(left kind, right kind)``: same-kind pairs (int
#: twice, the ranked path), ints next to floats (the float path, or per
#: row past 2**53) and bools next to ints (per row)
KIND_PAIRS = [
    (KIND_INT, KIND_INT),
    (KIND_INT, KIND_INT),
    (KIND_INT, KIND_FLOAT),
    (KIND_FLOAT, KIND_INT),
    (KIND_FLOAT, KIND_FLOAT),
    (KIND_STR, KIND_STR),
    (KIND_BOOL, KIND_BOOL),
    (KIND_BOOL, KIND_INT),
]

FLOATS = [0.0, 1.0, 1.5, 2.0, -3.0, 7.0, 2.0 ** 53, -0.5]
STRINGS = ["", "a", "b", "ab", "b-wide-string", "é"]


def int_values(base: int, spread: int):
    """Ints around *base*: a window of *spread*, or an int64 extreme."""
    lo = max(I64_MIN, base)
    hi = min(I64_MAX, base + spread)
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi),
        st.sampled_from([I64_MIN, I64_MAX, -I64_MAX, -1, 0, 1]),
    )


@st.composite
def int_domains(draw):
    """A value strategy for one int key column pair: a dense window at
    any base (extremes included), a window wider than the presence
    table takes, or anywhere in int64."""
    domain = draw(st.sampled_from(["dense", "sparse", "anywhere", "edges"]))
    base = draw(
        st.one_of(
            st.integers(-50, 50),
            st.sampled_from([I64_MIN, I64_MAX - 40, -(2 ** 40)]),
        )
    )
    if domain == "dense":
        return st.integers(max(I64_MIN, base), min(I64_MAX, base + 40))
    if domain == "sparse":
        return int_values(base, 50_000)
    if domain == "edges":
        return st.sampled_from([I64_MIN, I64_MAX, -I64_MAX, 0])
    return st.integers(I64_MIN, I64_MAX)


def values_of(kind, ints):
    return {
        KIND_INT: ints,
        KIND_FLOAT: st.sampled_from(FLOATS),
        KIND_STR: st.sampled_from(STRINGS),
        KIND_BOOL: st.booleans(),
    }[kind]


def vector(draw, kind, n, values, nulls):
    """A vector whose NULL slots keep arbitrary fills (drawn like the
    live values, never the constructor's zero)."""
    data = draw(st.lists(values, min_size=n, max_size=n))
    if nulls == "some":
        valid = np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
    else:
        valid = np.full(n, nulls == "none", dtype=bool)
    dtype = {
        KIND_INT: np.int64,
        KIND_FLOAT: np.float64,
        KIND_BOOL: bool,
        KIND_STR: str,
    }[kind]
    arr = np.array(data, dtype=dtype) if n else np.array([], dtype=dtype)
    if kind == KIND_STR and n == 0:
        arr = np.array([], dtype="U1")
    return Vector(kind, arr, valid)


@st.composite
def join_sides(draw):
    """``(left, right, left_keys, right_keys)`` with 1–3 key columns and
    payloads ``p`` / ``q`` (row numbers, for residuals and identity)."""
    n_keys = draw(st.integers(1, 3))
    pairs = [draw(st.sampled_from(KIND_PAIRS)) for _ in range(n_keys)]
    nl = draw(st.sampled_from([0, 1, 2, 5, 17, 40]))
    nr = draw(st.sampled_from([0, 1, 3, 9, 30]))
    nulls = st.sampled_from(["none", "none", "some", "all"])
    null_l, null_r = draw(nulls), draw(nulls)
    left_cols, right_cols = [], []
    for kl, kr in pairs:
        ints = draw(int_domains())
        left_cols.append(vector(draw, kl, nl, values_of(kl, ints), null_l))
        right_cols.append(vector(draw, kr, nr, values_of(kr, ints), null_r))
    left_keys = [f"l{i}" for i in range(n_keys)]
    right_keys = [f"r{i}" for i in range(n_keys)]
    left = Batch(
        Schema([Column(n) for n in left_keys + ["p"]]),
        left_cols + [Vector.from_values(list(range(nl)))],
        nl,
    )
    right = Batch(
        Schema([Column(n) for n in right_keys + ["q"]]),
        right_cols + [Vector.from_values([(7 * j) % 11 for j in range(nr)])],
        nr,
    )
    return left, right, left_keys, right_keys


EXAMPLES = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_batch(got: Batch, want: Batch) -> None:
    assert got.schema.columns == want.schema.columns
    assert len(got) == len(want)
    for g, w in zip(got.columns, want.columns):
        assert g.kind == w.kind
        assert_same_array(g.data, w.data)
        assert_same_array(g.valid, w.valid)


# --------------------------------------------------------------------- #
# Codes and pairs
# --------------------------------------------------------------------- #


def build_side(codes_r, n_codes=0):
    """``(starts, build_rows)`` of the build codes *codes_r*."""
    starts = kernels.build_starts(codes_r, n_codes)
    return starts, kernels.build_rows(codes_r, starts)


def index_pairs(index, left, left_keys):
    """The pairs *index* answers for *left*'s keys."""
    return kernels.probe_match(
        index.starts, index.rows, index.probe(left, left_keys)
    )


def copy_of(batch: Batch) -> Batch:
    """The same columns in a batch that keeps no index yet."""
    return Batch(batch.schema, batch.columns, len(batch))


class TestCodes:
    @EXAMPLES
    @given(join_sides())
    def test_codes_are_key_equality(self, sides):
        """Two rows share a code exactly when the sorting matcher's codes
        say their keys are equal and non-NULL: right rows among
        themselves, and a left row's probe code against a right row's
        (a left key the right side lacks probes to ``-1``)."""
        left, right, lk, rk = sides
        index = kernels.build_index(right, rk)
        codes_l = index.probe(left, lk)
        ref_l, ref_r = ref_joint_codes(left, right, lk, rk)
        assert codes_l.dtype == index.codes.dtype == np.int64
        assert_same_array(index.codes < 0, ref_r < 0)
        assert np.array_equal(
            index.codes[:, None] == index.codes[None, :],
            (ref_r[:, None] == ref_r[None, :]) & (ref_r >= 0)[:, None]
            | (index.codes < 0)[:, None] & (index.codes < 0)[None, :],
        )
        live_l = (codes_l >= 0)[:, None]
        assert np.array_equal(
            (codes_l[:, None] == index.codes[None, :]) & live_l,
            (ref_l[:, None] == ref_r[None, :]) & (ref_l >= 0)[:, None],
        )
        assert (codes_l[ref_l < 0] == -1).all()  # a NULL component

    @EXAMPLES
    @given(join_sides(), st.sampled_from([2, 3, 8]))
    def test_partitions_keep_matching_rows_together(self, sides, k):
        """The spill path's partitions put every row in one partition,
        every matching pair in the same one, every NULL key in the last,
        and every left key the right side lacks by its row position."""
        left, right, lk, rk = sides
        index = kernels.build_index(right, rk)
        codes_l = index.probe(left, lk)
        li, ri = index_pairs(index, left, lk)
        parts_l, parts_r = spill.join_partitions(index, left, lk, k)
        part_l = np.full(len(left), -1, dtype=np.int64)
        part_r = np.full(len(right), -1, dtype=np.int64)
        for parts, part in ((parts_l, part_l), (parts_r, part_r)):
            assert len(parts) == k
            assert_same_array(
                np.sort(np.concatenate(parts)),
                np.arange(len(part), dtype=np.int64),
            )
            for p, at in enumerate(parts):
                part[at] = p
        assert_same_array(part_l[li], part_r[ri])
        assert (part_r[index.codes < 0] == k - 1).all()
        null_l = ~np.logical_and.reduce(
            [left.column(ref).valid for ref in lk]
        )
        assert (part_l[null_l] == k - 1).all()
        missing = np.flatnonzero((codes_l < 0) & ~null_l)
        assert_same_array(part_l[missing], missing % k)

    @EXAMPLES
    @given(join_sides(), st.sampled_from([1, 2, 3]))
    def test_pairs_equal_binary_search(self, sides, n_morsels):
        left, right, lk, rk = sides
        index = kernels.build_index(right, rk)
        codes_l = index.probe(left, lk)
        _sorted_codes, ref_rows = ref_build_side(index.codes)
        assert_same_array(index.rows, ref_rows)
        ref_l, ref_r = ref_joint_codes(left, right, lk, rk)
        sorted_codes, ref_rows = ref_build_side(ref_r)
        bounds = np.linspace(0, len(codes_l), n_morsels + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            got = kernels.probe_match(index.starts, index.rows, codes_l[lo:hi])
            want = ref_probe_match(sorted_codes, ref_rows, ref_l[lo:hi])
            for g, w in zip(got, want):
                assert_same_array(g, w)

    @EXAMPLES
    @given(
        st.integers(0, 300).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sampled_from(
                    [1, 7, 4 * n + 1023, 4 * n + 1024, 4 * n + 1025, 10 ** 6]
                ),
            )
        ),
        st.data(),
    )
    def test_int_dictionary_equals_cumsum_renumbering(self, n_width, data):
        """The renumbering a fold and a grouping column go through: each
        value's rank among the distinct values, through the presence
        table or ``np.unique`` by the domain's width."""
        n, width = n_width
        base = data.draw(st.sampled_from([0, -7, 2 ** 40]))
        offsets = np.array(
            data.draw(
                st.lists(st.integers(0, width - 1), min_size=n, max_size=n)
            ),
            dtype=np.int64,
        )
        dictionary, codes = kernels._int_dictionary(offsets + base)
        want_codes, want_n = ref_renumbering(offsets, width)
        assert_same_array(codes, want_codes)
        assert len(dictionary) == (want_n if n else 0)
        if n:
            span = int(offsets.max() - offsets.min()) + 1
            assert (dictionary.lut is not None) == (span <= 4 * n + 1024)
            assert_same_array(dictionary.lookup(offsets + base), codes)

    @pytest.mark.parametrize("base", [I64_MIN, -5, I64_MAX - 5000])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_threshold_edge_domains(self, base, extra):
        # two ints whose span is exactly at, just under or just over
        # the presence table's 4n + 1024, at either end of int64: the
        # codes are np.unique's inverse either way, and so is a lookup
        n = 40
        span = 4 * n + 1024 + extra
        rng = np.random.default_rng(span)
        vals = base + rng.integers(0, span, size=n)
        vals[:2] = [base, base + span - 1]
        vals = vals.astype(np.int64)
        dictionary, got = kernels._int_dictionary(vals)
        uniq, want = np.unique(vals, return_inverse=True)
        assert_same_array(got, np.asarray(want, dtype=np.int64))
        assert_same_array(dictionary.values, uniq)
        assert (dictionary.lut is not None) == (extra <= 0)
        assert_same_array(dictionary.lookup(vals), got)
        outside = np.array(
            [v for v in (base - 1, base + span, I64_MIN, I64_MAX)
             if I64_MIN <= v <= I64_MAX and v not in set(vals.tolist())],
            dtype=np.int64,
        )
        assert (dictionary.lookup(outside) == -1).all()

    def test_extremes_do_not_wrap(self):
        vals = np.array([I64_MAX, I64_MIN, 0, -I64_MAX, I64_MAX], np.int64)
        dictionary, got = kernels._int_dictionary(vals)
        assert got.tolist() == [3, 0, 2, 1, 3] and len(dictionary) == 4
        # a dense domain at either end: probes from the other end, whose
        # offsets wrap around int64, find nothing
        for base in (I64_MIN, I64_MAX - 3):
            dense = np.arange(base, base + 4, dtype=np.int64)
            dictionary, _codes = kernels._int_dictionary(dense)
            assert dictionary.lut is not None
            probe = np.array(
                [I64_MIN, I64_MAX, -I64_MAX, 0, base, base + 3], np.int64
            )
            want = [
                v - base if 0 <= v - base < 4 else -1 for v in probe.tolist()
            ]
            assert dictionary.lookup(probe).tolist() == want

    def test_absent_and_null_probe_codes_get_empty_windows(self):
        starts, build_rows = build_side(np.array([2, -1, 0, 2]))
        li, ri = kernels.probe_match(
            starts, build_rows, np.array([-1, 1, 2, 3, 99, 0])
        )
        assert li.tolist() == [2, 2, 5]
        assert ri.tolist() == [0, 3, 2]

    @pytest.mark.parametrize(
        "codes", [[3, 0, 2, 1], [3, -1, 0, 5], [], [-1, -1], [1, 1, 0]]
    )
    def test_unique_codes_scatter_like_the_stable_sort(self, codes):
        codes = np.array(codes, dtype=np.int64)
        starts, build_rows = build_side(codes, 7)
        _sorted, want = ref_build_side(codes)
        assert_same_array(build_rows, want)
        assert len(starts) >= 7 + 3


#: one build column's kind, for :func:`kept_index_sides`
BUILD_KINDS = [KIND_INT, KIND_FLOAT, KIND_STR, KIND_BOOL]

#: ints and floats that meet: equal pairs (2 == 2.0, 2**53 == 2.0**53),
#: ints past float64 precision (2**53 + 1) and the int64 extremes
SHARED_INTS = [0, 1, 2, 7, -3, 2 ** 53, 2 ** 53 + 1, I64_MIN, I64_MAX]


@st.composite
def kept_index_sides(draw):
    """A right side with 1–2 key columns of any kinds, and one left side
    per kind of ``KIND_PAIRS`` (every key column of that kind) plus one
    of mixed kinds: ``(right, right_keys, lefts, left_keys)``."""
    n_keys = draw(st.integers(1, 2))
    nulls = st.sampled_from(["none", "none", "some", "all"])
    ints = st.one_of(st.sampled_from(SHARED_INTS), st.integers(-3, 9))
    nr = draw(st.sampled_from([0, 1, 4, 12, 30]))
    null_r = draw(nulls)
    right_keys = [f"r{i}" for i in range(n_keys)]
    left_keys = [f"l{i}" for i in range(n_keys)]
    right = Batch(
        Schema([Column(n) for n in right_keys + ["q"]]),
        [
            vector(draw, kind, nr, values_of(kind, ints), null_r)
            for kind in draw(
                st.lists(st.sampled_from(BUILD_KINDS), min_size=n_keys,
                         max_size=n_keys)
            )
        ]
        + [Vector.from_values([(7 * j) % 11 for j in range(nr)])],
        nr,
    )
    shapes = [[kind] * n_keys for kind in sorted({k for k, _ in KIND_PAIRS})]
    shapes.append(
        draw(st.lists(st.sampled_from(BUILD_KINDS), min_size=n_keys,
                      max_size=n_keys))
    )
    lefts = []
    for kinds in shapes:
        nl = draw(st.sampled_from([0, 1, 5, 17]))
        null_l = draw(nulls)
        lefts.append(
            Batch(
                Schema([Column(n) for n in left_keys + ["p"]]),
                [vector(draw, kind, nl, values_of(kind, ints), null_l)
                 for kind in kinds]
                + [Vector.from_values(list(range(nl)))],
                nl,
            )
        )
    return right, right_keys, lefts, left_keys


class TestKeptIndex:
    @EXAMPLES
    @given(kept_index_sides())
    def test_one_index_serves_probes_of_every_kind(self, sides):
        """The index kept on the right side, probed by left sides of
        every kind in turn, answers each one what a fresh index built
        for that probe alone answers — and what the sorting matcher
        answers."""
        right, rk, lefts, lk = sides
        kept = kernels.build_index(right, rk)
        for left in lefts:
            assert kernels.build_index(right, rk) is kept
            got = index_pairs(kept, left, lk)
            fresh = kernels.BuildIndex(copy_of(right), rk)
            fresh = index_pairs(fresh, left, lk)
            want = ref_pairs(left, right, lk, rk)
            for g, f, w in zip(got, fresh, want):
                assert_same_array(g, f)
                assert_same_array(g, w)

    def test_a_stored_batch_keeps_no_index(self, tmp_path):
        config = TpchConfig(scale_factor=0.001, seed=3)
        generate_stored(str(tmp_path / "store"), config)
        db = load_stored_database(str(tmp_path / "store"))
        stored = db.relation("nation").stored_batch()
        out = kernels.hash_join(
            copy_of(stored).rename_table("n2"), stored,
            ["n2.n_nationkey"], ["nation.n_nationkey"],
        )
        assert len(out) == len(stored)
        assert stored.kept_indexes() is None
        transient = copy_of(stored)
        kernels.hash_join(
            copy_of(stored).rename_table("n2"), transient,
            ["n2.n_nationkey"], ["nation.n_nationkey"],
        )
        assert list(transient.kept_indexes()) == [("nation.n_nationkey",)]


# --------------------------------------------------------------------- #
# The build lut: every i8 dictionary of a build index up to the bound
# --------------------------------------------------------------------- #

#: a sparse ``i8`` build column: 89 999 wide, far over ``4n + 1024`` for
#: its rows and under ``BUILD_LUT_WIDTH``
SPARSE = [100, 5_000, 42_000, 90_098]
#: its probe values: below the domain, at each end, inside and absent,
#: above it, and the int64 extremes
SPARSE_PROBES = [99, 100, 2_500, 42_000, 90_098, 90_099, I64_MIN, I64_MAX]
#: a composite key's second column, by kind: ``(build values, probe
#: values)``, the probe's with values the build lacks
SECOND = {
    "i8": ([-4, 7, 11], [-4, 7, 11, 8, -5, 12]),
    "str": (["x", "y", "zz"], ["x", "y", "zz", "w", ""]),
    "bool": ([True, False], [True, False]),
}


def with_nulls(values, every):
    """*values* with every *every*-th one NULL (none when *every* is 0)."""
    if not every:
        return list(values)
    return [NULL if i % every == 0 else v for i, v in enumerate(values)]


def assert_pairs_equal_reference(right, right_keys, left, left_keys):
    """The pairs of *right*'s kept index probed by *left* are the sorting
    matcher's, and so is every join of the family built on them."""
    index = kernels.build_index(right, right_keys)
    want = ref_pairs(left, right, left_keys, right_keys)
    for got, w in zip(index_pairs(index, left, left_keys), want):
        assert_same_array(got, w)
    for join in JOINS:
        got = getattr(kernels, join)(left, right, left_keys, right_keys, None)
        assert_same_batch(
            got, ref_join(join, left, right, left_keys, right_keys, None)
        )
    return index


def fold_at_the_bound(extra: int):
    """A two-column ``i8`` build whose fold domain is
    ``BUILD_LUT_WIDTH + extra`` wide: 257 first-column values (ranks
    0–256), 511 second-column values (radix 511, so a fold step of 512),
    the fold's lowest row at ranks ``(0, 2)`` and its highest at
    ``(256, 1 + extra)``; 513 rows, so ``4n + 1024`` is far under it."""
    a = [1_000_000] + [256 + 1_000_000] + [
        1_000_000 + 1 + j % 255 for j in range(511)
    ]
    b = [3 * 2 - 700, 3 * (1 + extra) - 700] + [3 * j - 700 for j in range(511)]
    return a, b


class TestBuildLut:
    """A build index ranks every ``i8`` column and fold whose domain is
    at most ``BUILD_LUT_WIDTH`` wide (or about its row count) through a
    ``lut``.  Codes are ranks either way, so its pairs stay the sorting
    matcher's byte for byte, a NULL component never matching."""

    @pytest.mark.parametrize("second", sorted(SECOND))
    @pytest.mark.parametrize("nulls", ["none", "build", "probe", "both"])
    @pytest.mark.parametrize("order", ["i8-first", "i8-second"])
    def test_composite_keys_equal_the_sorting_matcher(
        self, second, nulls, order
    ):
        build_b, probe_b = SECOND[second]
        build = [(a, b) for a in SPARSE for b in build_b][:-1]
        probe = [(a, b) for a in SPARSE_PROBES for b in probe_b]
        build_every = 5 if nulls in ("build", "both") else 0
        probe_every = 4 if nulls in ("probe", "both") else 0
        columns = {}
        for side, rows, every in (
            ("r", build, build_every), ("l", probe, probe_every),
        ):
            first = with_nulls([a for a, _ in rows], every)
            # the other column's NULLs at other rows
            other = with_nulls(
                [b for _, b in rows][::-1], every + 1 if every else 0
            )[::-1]
            if order == "i8-second":
                first, other = other, first
            columns[side] = (first, other)
        right = batch_of(
            r0=columns["r"][0], r1=columns["r"][1], q=list(range(len(build)))
        )
        left = batch_of(
            l0=columns["l"][0], l1=columns["l"][1], p=list(range(len(probe)))
        )
        index = assert_pairs_equal_reference(
            right, ["r0", "r1"], left, ["l0", "l1"]
        )
        sparse = index.columns[0 if order == "i8-first" else 1]
        assert sparse.lut is not None
        assert len(sparse.lut) - 1 > 4 * len(right) + 1024

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_fold_domains_at_the_bound(self, extra):
        a, b = fold_at_the_bound(extra)
        right = batch_of(a=a, b=b, q=list(range(len(a))))
        index = kernels.build_index(right, ["a", "b"])
        _radix, fold = index.folds[0]
        assert int(fold.values[-1] - fold.values[0]) + 1 == (
            kernels.BUILD_LUT_WIDTH + extra
        )
        assert (fold.lut is not None) == (extra <= 0)
        # every build key, pairs of build values the build lacks (below,
        # inside and above the fold domain), values it lacks, and NULLs
        probe_a = a + [1_000_000, 1_000_256, 1_000_128, 999_999, 1_000_257]
        probe_b = b + [-700, 3 * 510 - 700, -699, -701, 3 * 511 - 700]
        left = batch_of(
            x=with_nulls(probe_a, 7),
            y=with_nulls(probe_b[::-1], 11)[::-1],
            p=list(range(len(probe_a))),
        )
        assert_pairs_equal_reference(right, ["a", "b"], left, ["x", "y"])

    def test_an_in_bound_kept_fold_answers_through_its_lut(
        self, monkeypatch
    ):
        """The paper's Query 2 / Query 3 shape: a ``partsupp``-like build
        keyed on ``(partkey, suppkey)`` whose fold is far wider than
        ``4n + 1024``, probed by ``lineitem``-like keys with no binary
        search."""
        rng = np.random.default_rng(44)
        parts = np.repeat(np.arange(1, 601, dtype=np.int64), 4)
        supps = (parts * 7 + np.tile(np.arange(4), 600) * 25) % 100 + 1
        right = batch_of(
            ps_partkey=parts.tolist(), ps_suppkey=supps.tolist(),
            q=list(range(len(parts))),
        )
        rows = rng.integers(0, len(parts), size=900)
        left = batch_of(
            l_partkey=parts[rows].tolist(),
            l_suppkey=np.where(
                rng.random(900) < 0.3, rng.integers(1, 101, 900), supps[rows]
            ).tolist(),
            p=list(range(900)),
        )
        keys_r, keys_l = ["ps_partkey", "ps_suppkey"], ["l_partkey", "l_suppkey"]
        index = kernels.build_index(right, keys_r)
        assert kernels.build_index(right, keys_r) is index
        _radix, fold = index.folds[0]
        assert fold.lut is not None
        assert len(fold.lut) - 1 > 4 * len(right) + 1024

        def no_binary_search(*args, **kwargs):
            raise AssertionError("a kept fold probed by binary search")

        with monkeypatch.context() as patch:
            patch.setattr(np, "searchsorted", no_binary_search)
            codes = index.probe(left, keys_l)
        got = kernels.probe_match(index.starts, index.rows, codes)
        for g, w in zip(got, ref_pairs(left, right, keys_l, keys_r)):
            assert_same_array(g, w)

    @EXAMPLES
    @given(st.data())
    def test_random_composite_keys_equal_the_sorting_matcher(self, data):
        """2–3 key columns of ``i8`` (dense, or spread over up to twice
        the bound), ``str`` and ``bool``, up to 150 build rows, NULLs on
        either side: the pairs are the sorting matcher's, and each ``i8``
        dictionary and fold keeps a lut exactly when its domain fits."""
        n_keys = data.draw(st.integers(2, 3))
        kinds = data.draw(
            st.lists(
                st.sampled_from([KIND_INT, KIND_INT, KIND_STR, KIND_BOOL]),
                min_size=n_keys, max_size=n_keys,
            )
        )
        nr = data.draw(st.integers(0, 150))
        nl = data.draw(st.integers(0, 60))
        nulls = st.sampled_from(["none", "none", "some"])
        right_cols, left_cols = [], []
        for kind in kinds:
            spread = data.draw(
                st.sampled_from([40, 20_000, kernels.BUILD_LUT_WIDTH * 2])
            )
            base = data.draw(st.sampled_from([0, -(2 ** 40), I64_MAX - spread]))
            ints = st.integers(base, base + spread)
            right_cols.append(
                vector(data.draw, kind, nr, values_of(kind, ints),
                       data.draw(nulls))
            )
            # probes: the build's own values half of the time
            own = right_cols[-1].data.tolist()
            values = values_of(kind, ints)
            if own:
                values = st.one_of(values, st.sampled_from(own))
            left_cols.append(
                vector(data.draw, kind, nl, values, data.draw(nulls))
            )
        rk = [f"r{i}" for i in range(n_keys)]
        lk = [f"l{i}" for i in range(n_keys)]
        right = Batch(
            Schema([Column(n) for n in rk + ["q"]]),
            right_cols + [Vector.from_values(list(range(nr)))], nr,
        )
        left = Batch(
            Schema([Column(n) for n in lk + ["p"]]),
            left_cols + [Vector.from_values(list(range(nl)))], nl,
        )
        index = assert_pairs_equal_reference(right, rk, left, lk)
        bound = max(kernels.BUILD_LUT_WIDTH, 4 * nr + 1024)
        ints = [
            d for d in index.columns + [f for _r, f in index.folds]
            if d.kind in (KIND_INT, KIND_BOOL) and len(d)
        ]
        for dictionary in ints:
            width = int(dictionary.values[-1]) - int(dictionary.values[0]) + 1
            assert (dictionary.lut is not None) == (width <= bound)


# --------------------------------------------------------------------- #
# The join family
# --------------------------------------------------------------------- #


RESIDUAL = Comparison("<", Col("p"), Col("q"))

JOINS = ("hash_join", "left_outer_hash_join", "semi_join", "anti_join")


class TestJoinFamily:
    @EXAMPLES
    @given(join_sides(), st.booleans())
    def test_every_join_equals_the_sorting_matcher(self, sides, with_residual):
        left, right, lk, rk = sides
        residual = RESIDUAL if with_residual else None
        for join in JOINS:
            got = getattr(kernels, join)(left, right, lk, rk, residual)
            want = ref_join(join, left, right, lk, rk, residual)
            assert_same_batch(got, want)

        got = kernels.left_outer_join_index(
            left, right, lk, rk, residual,
            materialize=lambda n_rows: False,
        )
        for g, w in zip(got, ref_join("index", left, right, lk, rk, residual)):
            assert_same_array(g, w)


# --------------------------------------------------------------------- #
# SQL key semantics: the row engine's hash joins
# --------------------------------------------------------------------- #


def batch_of(**cols) -> Batch:
    names = list(cols)
    vectors = [Vector.from_values(cols[n]) for n in names]
    n = len(next(iter(cols.values()))) if cols else 0
    return Batch(Schema([Column(n) for n in names]), vectors, n)


def key_codes(left, right, left_keys, right_keys):
    """``(left probe codes, right build codes)``: a left row matches a
    right row exactly when its code is theirs and not ``-1``."""
    index = kernels.build_index(right, right_keys)
    return index.probe(left, left_keys), index.codes


class TestProbeCodes:
    def test_int_keys_match_by_value(self):
        left = batch_of(a=[1, 2, 3, 2])
        right = batch_of(b=[2, 9, 1])
        codes_l, codes_r = key_codes(left, right, ["a"], ["b"])
        assert codes_l[1] == codes_r[0]  # 2 == 2
        assert codes_l[3] == codes_r[0]
        assert codes_l[0] == codes_r[2]  # 1 == 1
        assert codes_l[2] == -1  # 3 unmatched

    def test_int_and_float_keys_collide_like_sql(self):
        left = batch_of(a=[1, 2])
        right = batch_of(b=[1.0, 2.5])
        codes_l, codes_r = key_codes(left, right, ["a"], ["b"])
        assert codes_l[0] == codes_r[0]  # 1 == 1.0
        assert codes_l[1] == -1  # 2 != 2.5
        # and the other way round, against an int build
        codes_l, codes_r = key_codes(right, left, ["b"], ["a"])
        assert codes_l.tolist() == [codes_r[0], -1]

    def test_nulls_never_match_even_each_other(self):
        left = batch_of(a=[1, NULL])
        right = batch_of(b=[NULL, 1])
        codes_l, codes_r = key_codes(left, right, ["a"], ["b"])
        assert codes_l[1] == -1 and codes_r[0] == -1
        assert codes_l[0] == codes_r[1]

    def test_composite_keys(self):
        left = batch_of(a=[1, 1, 2], b=["x", "y", "x"])
        right = batch_of(c=[1, 2], d=["y", "x"])
        codes_l, codes_r = key_codes(left, right, ["a", "b"], ["c", "d"])
        assert codes_l[1] == codes_r[0]  # (1, y)
        assert codes_l[2] == codes_r[1]  # (2, x)
        assert codes_l[0] == -1  # (1, x)

    def test_booleans_do_not_collide_with_ints(self):
        left = batch_of(a=[True, False])
        right = batch_of(b=[1, 0])
        codes_l, _codes_r = key_codes(left, right, ["a"], ["b"])
        assert codes_l.tolist() == [-1, -1]
        codes_l, _codes_r = key_codes(right, left, ["b"], ["a"])
        assert codes_l.tolist() == [-1, -1]

    def test_ints_beyond_float_precision_stay_exact(self):
        # float64(2**53 + 1) == 2.0**53: a float cast would match them
        left = batch_of(a=[2**53 + 1, 2**53])
        right = batch_of(b=[2.0**53, 1.5])
        codes_l, codes_r = key_codes(left, right, ["a"], ["b"])
        assert codes_l[0] == -1
        assert codes_l[1] == codes_r[0]
        codes_l, codes_r = key_codes(right, left, ["b"], ["a"])
        assert codes_l.tolist() == [codes_r[1], -1]

    def test_pairs_match_brute_force(self):
        rng = np.random.default_rng(7)
        codes_l = rng.integers(-1, 5, size=40)
        codes_r = rng.integers(-1, 5, size=30)
        li, ri = kernels.probe_match(*build_side(codes_r), codes_l)
        got = set(zip(li.tolist(), ri.tolist()))
        want = {
            (i, j)
            for i in range(len(codes_l))
            for j in range(len(codes_r))
            if codes_l[i] == codes_r[j] and codes_l[i] >= 0
        }
        assert got == want

    def test_null_partition_placement(self):
        parts = kernels.hash_partitions(np.array([-1, 0, 1, 2, 3]), 2)
        # numpy's -1 % 2 == 1: NULL rows ride in the last partition
        assert 0 in parts[1].tolist()


#: key-column shapes that rule out the ``np.unique`` factorizer, plus the
#: degenerate sides: (left key columns, right key columns)
EXACT_KIND_CASES = {
    "bool-vs-int": ([[True, False, True, NULL]], [[1, 0, 1, 2]]),
    "bool-vs-bool": ([[True, False, NULL]], [[False, False, True]]),
    "big-int-vs-float": (
        [[2**53 + 1, 2**53, 3, NULL]], [[2.0**53, 3.0, 1.5, 2.0**53]],
    ),
    "obj-key": (
        [[2**70, 2**70 + 1, 7, NULL]], [[2**70, 7, 7.0, NULL]],
    ),
    "str-keys": ([["a", "bb", NULL, "a"]], [["a", "c", "bb", NULL]]),
    "str-vs-int": ([["1", "2", "x"]], [[1, 2, 3]]),
    "composite-with-null": (
        [[1, 1, 2, NULL], ["x", NULL, "y", "y"]],
        [[1, 2, 2, 1], ["x", "y", NULL, NULL]],
    ),
    "empty-build": ([[1, 2, NULL]], [[]]),
    "empty-probe": ([[]], [[1, 2, NULL]]),
}

ROW_JOINS = {
    "hash_join": hash_join,
    "left_outer_hash_join": left_outer_hash_join,
    "semi_join": semi_join,
    "anti_join": anti_join,
}


class TestExactKindMatrix:
    """Every join of the family, on every key-kind combination, with
    and without a residual: the bag the row engine's hash joins
    produce."""

    @pytest.mark.parametrize("case", sorted(EXACT_KIND_CASES))
    @pytest.mark.parametrize("join", sorted(ROW_JOINS))
    @pytest.mark.parametrize("with_residual", [False, True])
    def test_matches_row_engine(self, case, join, with_residual):
        left_cols, right_cols = EXACT_KIND_CASES[case]
        left_keys = [f"a{i}" for i in range(len(left_cols))]
        right_keys = [f"b{i}" for i in range(len(right_cols))]
        left = batch_of(
            **dict(zip(left_keys, left_cols)),
            p=list(range(len(left_cols[0]))),
        )
        right = batch_of(
            **dict(zip(right_keys, right_cols)),
            q=[1] * len(right_cols[0]),
        )
        residual = (
            Comparison(">=", Col("p"), Col("q")) if with_residual else None
        )
        got = getattr(kernels, join)(
            left, right, left_keys, right_keys, residual
        )
        want = ROW_JOINS[join](
            left.to_relation(), right.to_relation(), left_keys, right_keys,
            residual,
        )
        assert got.to_relation().sorted().rows == want.sorted().rows

    @pytest.mark.parametrize("case", sorted(EXACT_KIND_CASES))
    @pytest.mark.parametrize("join", sorted(ROW_JOINS))
    @pytest.mark.parametrize("with_residual", [False, True])
    def test_matches_row_engine_spilled(
        self, tmp_path, case, join, with_residual
    ):
        """The same bag when the join is sent to disk in three Grace
        partitions.  Inner and left outer joins spill unless a key is an
        ``obj`` column (which the temp files cannot hold); semi and anti
        joins never spill."""
        left_cols, right_cols = EXACT_KIND_CASES[case]
        left_keys = [f"a{i}" for i in range(len(left_cols))]
        right_keys = [f"b{i}" for i in range(len(right_cols))]
        left = batch_of(
            **dict(zip(left_keys, left_cols)),
            p=list(range(len(left_cols[0]))),
        )
        right = batch_of(
            **dict(zip(right_keys, right_cols)),
            q=[1] * len(right_cols[0]),
        )
        residual = (
            Comparison(">=", Col("p"), Col("q")) if with_residual else None
        )
        with forced_spill(tmp_path, 3) as governor, governed(governor):
            got = getattr(kernels, join)(
                left, right, left_keys, right_keys, residual
            )
        want = ROW_JOINS[join](
            left.to_relation(), right.to_relation(), left_keys, right_keys,
            residual,
        )
        assert got.to_relation().sorted().rows == want.sorted().rows
        spills = join in ("hash_join", "left_outer_hash_join") and (
            case != "obj-key"
        )
        assert governor.spill_count == int(spills)
