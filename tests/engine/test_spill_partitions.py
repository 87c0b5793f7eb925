"""A Grace-partitioned join or nest equals the same kernel run whole.

The spill path (:mod:`repro.engine.spill`) is the engine's one
partitioned execution: a join's rows are scattered on ``code % k`` of
their key codes (the right side's build index codes, the left side's
probe codes in it), a nest's on ``id % k`` of its group ids, each
partition goes through disk and back memory-mapped, the ordinary
kernel runs per partition and the outputs are stacked.  Whatever ``k``,
the answer must be the whole-input answer as a bag, NULL keys included
(they never match and ride in partition ``k - 1``; a left key the right
side lacks goes by its row position), with the same ``Metrics`` totals
and a trace that satisfies every span invariant.

:func:`forced_spill` takes the budget out of the picture: its governor
sends every join and nest of the top pass to disk in exactly ``k``
partitions, never binds, and lets the partitions themselves run in
memory, so the partition count is the only variable.  Covered:

* the joins that spill — inner, left outer built, and left outer as its
  pair index (a spilled one is handed back built) — on every key-kind
  shape, with and without a residual (``TestJoinPartitions``);
* degenerate sides: empty, all-NULL keys, one distinct key;
* whole queries whose nests and joins spill: the linking-operator
  matrix on the paper's R/S/T data under both logics, and the six
  figure queries, each against the row engine (``TestQueryPartitions``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.engine import NULL, Column, Schema
from repro.engine import spill
from repro.engine.context import current
from repro.engine.expressions import Col, Comparison
from repro.engine.governor import ResourceGovernor, governed
from repro.engine.metrics import collect
from repro.engine.trace import (
    KIND_SPILL,
    reconcile_with_metrics,
    trace_invariant_violations,
    tracing,
)
from repro.engine.vector import Batch, Vector, kernels
from repro.tpch import query1, query2, query3

from ..core.test_trace_invariants import LINKING_MATRIX

#: far above anything these inputs charge: accounting on, never binding
NON_BINDING_MB = 4096

#: the partition counts: the smallest, one that is no power of two, and
#: more partitions than some shapes have distinct keys
PARTITIONS = (2, 3, 8)


class ForcedSpill(ResourceGovernor):
    """Every join and nest of the top pass spills; partitions do not."""

    def __init__(self, spill_dir: str, partitions: int):
        super().__init__(memory_limit_mb=NON_BINDING_MB, spill_dir=spill_dir)
        self.partitions = partitions

    def should_spill(self, est_bytes: int) -> bool:
        return current().spill_depth == 0


@contextmanager
def forced_spill(spill_dir, partitions: int):
    """A :class:`ForcedSpill` governor whose passes cut exactly
    *partitions* partitions (not installed: wrap it in ``governed`` or
    hand it to an execution)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spill, "_n_partitions", lambda est, governor: partitions)
        yield ForcedSpill(str(spill_dir), partitions)


def top_passes(trace):
    return [
        s for s in trace.spans()
        if s.kind == KIND_SPILL and s.counters.get("depth") == 0
    ]


def bag(batch: Batch):
    return sorted(map(repr, batch.to_relation().rows))


# --------------------------------------------------------------------- #
# Join inputs: one shape per key-kind combination
# --------------------------------------------------------------------- #


def _maybe_null(rng, values, rate=0.2):
    return [NULL if rng.random() < rate else v for v in values]


def _ints(rng, n):
    return rng.integers(0, 6, size=n).tolist()


def _key_columns(shape: str, rng, n: int, side: str):
    """The key columns of one side of *shape*."""
    if shape == "int":
        return [_maybe_null(rng, _ints(rng, n))]
    if shape == "int-vs-float":
        if side == "l":
            return [_maybe_null(rng, _ints(rng, n))]
        return [_maybe_null(rng, [v / 2 for v in _ints(rng, n)])]
    if shape == "str":
        words = ["a", "bb", "", "é", "a-string-wider-than-eight", "zz"]
        return [_maybe_null(rng, [words[i] for i in _ints(rng, n)])]
    if shape == "bool":
        return [_maybe_null(rng, [bool(v % 2) for v in _ints(rng, n)])]
    if shape == "bool-vs-int":
        if side == "l":
            return [_maybe_null(rng, [bool(v % 2) for v in _ints(rng, n)])]
        return [_maybe_null(rng, [v % 2 for v in _ints(rng, n)])]
    if shape == "big-int-vs-float":
        big = 2**53
        if side == "l":
            return [_maybe_null(rng, [big + v % 2 for v in _ints(rng, n)])]
        return [_maybe_null(rng, [float(big) + v % 3 for v in _ints(rng, n)])]
    if shape == "composite":
        return [
            _maybe_null(rng, [v % 3 for v in _ints(rng, n)]),
            _maybe_null(rng, [("x", "y")[v % 2] for v in _ints(rng, n)]),
        ]
    raise AssertionError(shape)


KEY_SHAPES = (
    "int",
    "int-vs-float",
    "str",
    "bool",
    "bool-vs-int",
    "big-int-vs-float",
    "composite",
)


def batch_of(columns, names) -> Batch:
    n = len(columns[0])
    return Batch(
        Schema([Column(name) for name in names]),
        [Vector.from_values(values) for values in columns],
        n,
    )


def join_sides(shape: str, n_left: int = 23, n_right: int = 17):
    """``(left, right, left_keys, right_keys)``: keys with NULLs and
    payloads ``p`` / ``q`` for the residual."""
    rng = np.random.default_rng(sorted(KEY_SHAPES).index(shape))
    left_cols = _key_columns(shape, rng, n_left, "l")
    right_cols = _key_columns(shape, rng, n_right, "r")
    left_keys = [f"a{i}" for i in range(len(left_cols))]
    right_keys = [f"b{i}" for i in range(len(right_cols))]
    left = batch_of(
        left_cols + [list(range(n_left))], left_keys + ["p"]
    )
    right = batch_of(
        right_cols + [[(7 * j) % 11 for j in range(n_right)]],
        right_keys + ["q"],
    )
    return left, right, left_keys, right_keys


def _index_built(left, right, lk, rk, residual):
    """The left outer join asked for its pair index, built here when it
    came back as one (a spilled join always comes back built)."""
    out = kernels.left_outer_join_index(
        left, right, lk, rk, residual, materialize=lambda n_rows: False
    )
    if isinstance(out, Batch):
        return out
    li, ri = out
    return Batch.concat_columns(left.take(li), right.take_padded(ri))


#: join id -> callable(left, right, left_keys, right_keys, residual)
JOINS = {
    "hash": kernels.hash_join,
    "left-outer": kernels.left_outer_hash_join,
    "left-outer-index": _index_built,
}

RESIDUALS = {
    "none": None,
    "p<q": Comparison("<", Col("p"), Col("q")),
}


def run_join(join, sides, residual, governor=None):
    """``(output, metrics, trace)`` of one join under *governor*."""
    left, right, lk, rk = sides
    with collect() as metrics, tracing() as trace, governed(governor):
        out = JOINS[join](left, right, lk, rk, residual)
    return out, metrics.snapshot(), trace


# --------------------------------------------------------------------- #
# The joins
# --------------------------------------------------------------------- #


class TestJoinPartitions:
    @pytest.mark.parametrize("shape", KEY_SHAPES)
    @pytest.mark.parametrize("k", PARTITIONS)
    @pytest.mark.parametrize("join", sorted(JOINS))
    @pytest.mark.parametrize("residual", sorted(RESIDUALS))
    def test_partitioned_equals_whole(
        self, tmp_path, shape, k, join, residual
    ):
        sides = join_sides(shape)
        whole, whole_metrics, _ = run_join(join, sides, RESIDUALS[residual])
        with forced_spill(tmp_path, k) as governor:
            got, metrics, trace = run_join(
                join, sides, RESIDUALS[residual], governor
            )
        assert bag(got) == bag(whole)
        assert got.schema.columns == whole.schema.columns
        assert metrics == whole_metrics
        (pass_,) = top_passes(trace)
        assert pass_.counters["partitions"] == k
        assert pass_.counters["bytes_spilled"] > 0
        assert pass_.counters["rows_out"] == len(whole)
        assert governor.spill_count == 1
        assert not trace_invariant_violations(trace)
        assert not reconcile_with_metrics(trace, metrics)

    @pytest.mark.parametrize("join", ["hash", "left-outer"])
    @pytest.mark.parametrize(
        "case",
        ["empty-probe", "empty-build", "all-null-keys", "one-key"],
    )
    def test_degenerate_sides(self, tmp_path, join, case):
        left, right, lk, rk = join_sides("int")
        if case == "empty-probe":
            left = left.take(np.empty(0, dtype=np.int64))
        elif case == "empty-build":
            right = right.take(np.empty(0, dtype=np.int64))
        elif case == "all-null-keys":
            left = batch_of(
                [[NULL] * len(left), list(range(len(left)))], ["a0", "p"]
            )
        else:
            right = batch_of(
                [[3] * len(right), list(range(len(right)))], ["b0", "q"]
            )
        sides = (left, right, lk, rk)
        whole, whole_metrics, _ = run_join(join, sides, None)
        with forced_spill(tmp_path, 3) as governor:
            got, metrics, trace = run_join(join, sides, None, governor)
        assert bag(got) == bag(whole)
        assert metrics == whole_metrics
        assert [p.counters["partitions"] for p in top_passes(trace)] == [3]
        assert not trace_invariant_violations(trace)


class PassBudget(ResourceGovernor):
    """Spills every pass, at any depth, whose own estimate exceeds
    *limit* bytes, whatever the outputs already charged: a partition
    re-enters the spill path exactly when its inputs are too large."""

    def __init__(self, spill_dir: str, limit: int):
        super().__init__(memory_limit_mb=NON_BINDING_MB, spill_dir=spill_dir)
        self.limit = limit

    def should_spill(self, est_bytes: int) -> bool:
        return est_bytes > self.limit


class TestMissingLeftKeys:
    @pytest.mark.parametrize("join", ["hash", "left-outer"])
    def test_left_keys_that_miss_spread_over_the_partitions(
        self, tmp_path, join
    ):
        """99 % of the left keys miss the right side.  Piled into one
        partition, they would make it as large as the whole join and
        re-spill it at every depth; spread, no partition spills."""
        n_left, n_right, k = 2000, 400, 4
        left = batch_of([list(range(n_left))] * 2, ["a0", "p"])
        right = batch_of(
            [
                [j if j < 20 else n_left + j for j in range(n_right)],
                list(range(n_right)),
            ],
            ["b0", "q"],
        )
        sides = (left, right, ["a0"], ["b0"])
        whole, whole_metrics, _ = run_join(join, sides, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spill, "_n_partitions", lambda est, governor: k)
            governor = PassBudget(
                str(tmp_path), spill.est_join_bytes(left, right, 1) // 2
            )
            got, metrics, trace = run_join(join, sides, None, governor)
        assert bag(got) == bag(whole)
        assert metrics == whole_metrics
        passes = [s for s in trace.spans() if s.kind == KIND_SPILL]
        assert [p.counters["depth"] for p in passes] == [0]
        assert governor.spill_count == 1


# --------------------------------------------------------------------- #
# Whole queries: spilled nests and joins == the row engine
# --------------------------------------------------------------------- #

FIGURE_QUERIES = [
    pytest.param(query1("1992-01-01", "1994-06-01"), id="fig4-q1"),
    pytest.param(query2("any", 1, 30, 6000, 25), id="fig5-q2a"),
    pytest.param(query2("all", 1, 30, 6000, 25), id="fig6-q2b"),
    pytest.param(query3("all", "exists", "a", 1, 30, 6000, 25), id="fig7-q3a"),
    pytest.param(query3("all", "not exists", "b", 1, 30, 6000, 25), id="fig8-q3b"),
    pytest.param(query3("any", "exists", "c", 1, 30, 6000, 25), id="fig9-q3c"),
]


def spilled_against_row(db, sql, k, spill_dir, logic="3vl"):
    """Run *sql* vectorized with every top-pass nest and join spilled in
    *k* partitions; check it against the row engine; return the trace."""
    prepared = repro.connect(db, plan_cache=False, logic=logic).prepare(sql)
    want = prepared.execute(strategy="nested-relational")
    with forced_spill(spill_dir, k) as governor:
        with collect() as metrics, governed(governor):
            got, trace = prepared.trace(
                strategy="nested-relational-vectorized"
            )
    assert got.sorted() == want.sorted()
    passes = top_passes(trace)
    assert passes and governor.spill_count >= len(passes)
    assert {p.counters["partitions"] for p in passes} == {k}
    assert not trace_invariant_violations(trace, result_cardinality=len(got))
    assert not reconcile_with_metrics(trace, metrics.snapshot())
    return trace


class TestQueryPartitions:
    @pytest.mark.parametrize("logic", ["3vl", "2vl"])
    @pytest.mark.parametrize("k", PARTITIONS)
    @pytest.mark.parametrize("sql", LINKING_MATRIX)
    def test_linking_matrix(self, paper_db, tmp_path, sql, k, logic):
        trace = spilled_against_row(paper_db, sql, k, tmp_path, logic)
        assert "spill-nest" in {p.name for p in top_passes(trace)}

    @pytest.mark.parametrize("k", (2, 8))
    @pytest.mark.parametrize("sql", FIGURE_QUERIES)
    def test_figure_queries(self, micro_tpch_nulls, tmp_path, sql, k):
        spilled_against_row(micro_tpch_nulls, sql, k, tmp_path)
