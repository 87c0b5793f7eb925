"""Unit tests for the morsel scheduler and the one vector kernel family.

There is one implementation of every kernel; a scheduler only decides
how many morsels its input is cut into.  Several morsels must give the
same relations (row for row, NULL-key semantics included) and the same
Metrics totals as one, with traces that carry the extra
``kind="morsel"`` spans while still satisfying every span-tree
invariant; the join-key semantics must equal the row engine's on every
column-kind combination.  The scheduler is forced to split with
``min_partition_rows=1`` so even the tiny fixtures exercise real morsel
splits.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.engine import NULL, Column, Schema
from repro.engine.expressions import Col, Comparison
from repro.engine.governor import ResourceGovernor, governed
from repro.engine.metrics import collect
from repro.engine.operators import (
    AntiJoin,
    HashJoin,
    LeftOuterHashJoin,
    SemiJoin,
)
from repro.engine.parallel import (
    DEFAULT_MIN_PARTITION_ROWS,
    MorselScheduler,
    default_min_partition_rows,
    default_threads,
)
from repro.engine.trace import (
    KIND_MORSEL,
    reconcile_with_metrics,
    trace_invariant_violations,
    tracing,
)
from repro.engine.vector import Batch, Vector, kernels
from repro.engine.vector.backend import VectorBackend
from repro.engine.vector.kernels import (
    build_side,
    hash_partitions,
    joint_codes,
    probe_match,
)


def batch_of(**cols) -> Batch:
    names = list(cols)
    vectors = [Vector.from_values(cols[n]) for n in names]
    n = len(next(iter(cols.values()))) if cols else 0
    return Batch(Schema([Column(n) for n in names]), vectors, n)


def forced(threads: int = 3) -> MorselScheduler:
    """A scheduler that partitions everything, even two-row batches."""
    return MorselScheduler(threads=threads, min_partition_rows=1)


def equi_match(codes_l, codes_r):
    return probe_match(*build_side(codes_r), codes_l)


def rows(batch: Batch):
    return batch.to_relation().sorted().rows


class TestJointCodes:
    def test_int_keys_match_by_value(self):
        left = batch_of(a=[1, 2, 3, 2])
        right = batch_of(b=[2, 9, 1])
        codes_l, codes_r = joint_codes(left, right, ["a"], ["b"])
        assert codes_l[1] == codes_r[0]  # 2 == 2
        assert codes_l[3] == codes_r[0]
        assert codes_l[0] == codes_r[2]  # 1 == 1
        assert codes_l[2] not in set(codes_r.tolist())  # 3 unmatched

    def test_int_and_float_keys_collide_like_sql(self):
        left = batch_of(a=[1, 2])
        right = batch_of(b=[1.0, 2.5])
        codes_l, codes_r = joint_codes(left, right, ["a"], ["b"])
        assert codes_l[0] == codes_r[0]  # 1 == 1.0
        assert codes_l[1] != codes_r[1]  # 2 != 2.5

    def test_nulls_never_match_even_each_other(self):
        left = batch_of(a=[1, NULL])
        right = batch_of(b=[NULL, 1])
        codes_l, codes_r = joint_codes(left, right, ["a"], ["b"])
        assert codes_l[1] == -1 and codes_r[0] == -1

    def test_composite_keys(self):
        left = batch_of(a=[1, 1, 2], b=["x", "y", "x"])
        right = batch_of(c=[1, 2], d=["y", "x"])
        codes_l, codes_r = joint_codes(left, right, ["a", "b"], ["c", "d"])
        assert codes_l[1] == codes_r[0]  # (1, y)
        assert codes_l[2] == codes_r[1]  # (2, x)
        assert codes_l[0] not in set(codes_r.tolist())  # (1, x)

    def test_booleans_do_not_collide_with_ints(self):
        # bool vs int keys take the per-row group_key factorizer
        left = batch_of(a=[True, False])
        right = batch_of(b=[1, 0])
        codes_l, codes_r = joint_codes(left, right, ["a"], ["b"])
        assert not set(codes_l.tolist()) & set(codes_r.tolist())

    def test_ints_beyond_float_precision_stay_exact(self):
        # float64(2**53 + 1) == 2.0**53: a float cast would match them
        left = batch_of(a=[2**53 + 1, 2**53])
        right = batch_of(b=[2.0**53, 1.5])
        codes_l, codes_r = joint_codes(left, right, ["a"], ["b"])
        assert codes_l[0] != codes_r[0]
        assert codes_l[1] == codes_r[0]


class TestEquiMatch:
    def test_pairs_match_brute_force(self):
        rng = np.random.default_rng(7)
        codes_l = rng.integers(-1, 5, size=40)
        codes_r = rng.integers(-1, 5, size=30)
        li, ri = equi_match(codes_l, codes_r)
        got = set(zip(li.tolist(), ri.tolist()))
        want = {
            (i, j)
            for i in range(len(codes_l))
            for j in range(len(codes_r))
            if codes_l[i] == codes_r[j] and codes_l[i] >= 0
        }
        assert got == want

    def test_pair_order_is_probe_major(self):
        li, _ = equi_match(np.array([3, 1, 3]), np.array([3, 1, 3]))
        assert li.tolist() == sorted(li.tolist())

    def test_probe_match_positions_are_morsel_local(self):
        codes_r = np.array([5, 7])
        sorted_codes, build_rows = build_side(codes_r)
        li, ri = probe_match(sorted_codes, build_rows, np.array([7, 5]))
        assert li.tolist() == [0, 1]
        assert ri.tolist() == [1, 0]

    def test_null_probe_codes_find_nothing(self):
        sorted_codes, build_rows = build_side(np.array([0, 1, 2]))
        li, ri = probe_match(sorted_codes, build_rows, np.array([-1, -1]))
        assert len(li) == 0 and len(ri) == 0

    def test_null_partition_placement(self):
        parts = hash_partitions(np.array([-1, 0, 1, 2, 3]), 2)
        # numpy's -1 % 2 == 1: NULL rows ride in the last partition
        assert 0 in parts[1].tolist()


class TestMorselEquivalence:
    """Forced morsel splits == the same kernel on one morsel, row for
    row (morsels only compute positions; the operator assembles once)."""

    def _random_sides(self, seed, n_left=23, n_right=17):
        rng = np.random.default_rng(seed)
        def col(n, null_rate=0.2):
            vals = rng.integers(0, 6, size=n).tolist()
            return [
                NULL if rng.random() < null_rate else v for v in vals
            ]
        left = batch_of(a=col(n_left), p=col(n_left, 0.0))
        right = batch_of(b=col(n_right), q=col(n_right, 0.0))
        return left, right

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("threads", [2, 4])
    @pytest.mark.parametrize(
        "join",
        ["hash_join", "left_outer_hash_join", "semi_join", "anti_join"],
    )
    @pytest.mark.parametrize(
        "residual", [None, Comparison("<", Col("p"), Col("q"))]
    )
    def test_join_family(self, seed, threads, join, residual):
        left, right = self._random_sides(seed)
        kernel = getattr(kernels, join)
        one = kernel(left, right, ["a"], ["b"], residual)
        many = kernel(left, right, ["a"], ["b"], residual, forced(threads))
        assert many.to_relation().rows == one.to_relation().rows

    def test_empty_probe_side(self):
        left = batch_of(a=[], p=[])
        right = batch_of(b=[1, 2], q=[3, 4])
        out = kernels.hash_join(left, right, ["a"], ["b"], None, forced())
        assert len(out) == 0

    def test_cross_join(self):
        left = batch_of(a=[1, 2, 3, NULL, 5])
        right = batch_of(b=[10, 20])
        one = kernels.cross_join(left, right)
        many = kernels.cross_join(left, right, None, forced())
        assert many.to_relation().rows == one.to_relation().rows

    def test_filter(self):
        batch = batch_of(a=[1, NULL, 3, 4, 0, 2], b=[2, 2, 2, NULL, 2, 2])
        pred = Comparison(">", Col("a"), Col("b"))
        one = kernels.filter_batch(batch, pred)
        many = kernels.filter_batch(batch, pred, forced())
        assert many.to_relation().rows == one.to_relation().rows == [(3, 2)]


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
    "hash_join": HashJoin,
    "left_outer_hash_join": LeftOuterHashJoin,
    "semi_join": SemiJoin,
    "anti_join": AntiJoin,
}


class TestExactKindMatrix:
    """Every join of the family, on every key-kind combination, with
    and without a residual, on one morsel and on several: the bag the
    row engine's hash joins produce."""

    @pytest.mark.parametrize("case", sorted(EXACT_KIND_CASES))
    @pytest.mark.parametrize("join", sorted(ROW_JOINS))
    @pytest.mark.parametrize("with_residual", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_row_engine(self, case, join, with_residual, threads):
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
        residual = Comparison(">=", Col("p"), Col("q")) if with_residual else None
        got = getattr(kernels, join)(
            left, right, left_keys, right_keys, residual,
            MorselScheduler(threads=threads, min_partition_rows=1),
        )
        want = ROW_JOINS[join](
            left.to_relation(), right.to_relation(), left_keys, right_keys,
            residual,
        ).materialize()
        assert rows(got) == want.sorted().rows


class TestScheduler:
    def test_small_inputs_stay_one_morsel(self):
        sched = MorselScheduler(threads=4, min_partition_rows=100)
        assert sched.slices(199) == [(0, 199)]
        assert sched.slices(200) == [(0, 100), (100, 200)]
        assert sched.slices(0) == [(0, 0)]

    def test_partition_count_caps_at_threads(self):
        sched = MorselScheduler(threads=4, min_partition_rows=10)
        assert sched.partition_count(1000) == 4
        assert sched.partition_count(25) == 2
        assert sched.partition_count(5) == 1

    def test_never_more_morsels_than_rows(self):
        sched = MorselScheduler(threads=4, min_partition_rows=0)
        assert sched.slices(3) == [(0, 1), (1, 2), (2, 3)]

    def test_zero_threads_rejected(self):
        # threads=0 used to silently mean "sequential"; it is now a
        # config error
        from repro.errors import InvalidArgumentError

        with pytest.raises(InvalidArgumentError):
            MorselScheduler(threads=0, min_partition_rows=1)

    def test_one_worker_is_one_inline_morsel(self, monkeypatch):
        # sequential execution is the one-morsel case: no pool, no
        # morsel harness, whatever the input size
        from repro.engine import parallel

        sched = MorselScheduler(threads=1, min_partition_rows=1)
        assert sched.slices(1000) == [(0, 1000)]

        def no_pool(workers):
            raise AssertionError("threads=1 must not touch the pool")

        monkeypatch.setattr(parallel, "_pool", no_pool)
        monkeypatch.setattr(sched, "run", no_pool)
        left = batch_of(a=[1, 2, 3, 2])
        right = batch_of(b=[2, 9, 1])
        with tracing() as trace:
            out = kernels.hash_join(left, right, ["a"], ["b"], None, sched)
        assert len(out) == 3
        (span,) = trace.roots
        assert span.name == "vec-hash-join" and not span.children
        assert "threads" not in span.attrs and "parts" not in span.attrs

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "7")
        monkeypatch.setenv("REPRO_MIN_PARTITION_ROWS", "13")
        assert default_threads() == 7
        assert default_min_partition_rows() == 13
        assert MorselScheduler(threads=2).min_partition_rows == 13
        # REPRO_THREADS is the thread default of the parallel alias only
        assert repro.strategies.make("nested-relational-parallel").threads == 7
        assert repro.strategies.make("nested-relational-vectorized").threads == 1

    def test_env_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        monkeypatch.delenv("REPRO_MIN_PARTITION_ROWS", raising=False)
        assert default_threads() >= 1
        assert default_min_partition_rows() == DEFAULT_MIN_PARTITION_ROWS

    def test_set_threads_rejects_bad_counts(self):
        # negative counts used to be silently clamped to 1; they are
        # now a config error, and good counts still apply
        from repro.errors import InvalidArgumentError

        backend = VectorBackend(threads=4)
        with pytest.raises(InvalidArgumentError):
            backend.set_threads(-3)
        assert backend.threads == 4
        backend.set_threads(2)
        assert backend.threads == 2


SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)


class TestBackendEndToEnd:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_sequential_vector_backend(
        self, tiny_tpch_nulls, threads
    ):
        from repro.core.compute import NestedRelationalStrategy

        prepared = repro.connect(tiny_tpch_nulls).prepare(SQL)
        seq = prepared.execute(
            strategy=NestedRelationalStrategy(backend=VectorBackend())
        )
        par = prepared.execute(
            strategy=NestedRelationalStrategy(
                backend=VectorBackend(
                    threads=threads, min_partition_rows=1
                )
            )
        )
        assert par.sorted() == seq.sorted()

    def test_registered_strategy_resolves(self, tiny_tpch):
        prepared = repro.connect(tiny_tpch).prepare(SQL)
        out = prepared.execute(strategy="nested-relational-parallel")
        reference = prepared.execute(strategy="nested-relational")
        assert out.sorted() == reference.sorted()

    def test_morsel_spans_in_trace(self, tiny_tpch):
        from repro.core.compute import NestedRelationalStrategy

        strategy = NestedRelationalStrategy(
            backend=VectorBackend(threads=2, min_partition_rows=1)
        )
        with collect() as m:
            result, trace = repro.connect(tiny_tpch).prepare(SQL).trace(
                strategy=strategy
            )
        morsels = [
            s for s in trace.root.walk() if s.kind == KIND_MORSEL
        ]
        assert morsels, "forced partitioning must emit morsel spans"
        assert all(s.name.startswith("morsel[") for s in morsels)
        assert not trace_invariant_violations(trace)
        assert not reconcile_with_metrics(trace, m.counters)

    def test_small_inputs_emit_no_morsel_spans(self, tiny_tpch):
        # inputs below the morsel size stay whole: no morsel spans
        from repro.core.compute import NestedRelationalStrategy

        strategy = NestedRelationalStrategy(
            backend=VectorBackend(
                threads=2, min_partition_rows=10**6
            )
        )
        _, trace = repro.connect(tiny_tpch).prepare(SQL).trace(
            strategy=strategy
        )
        assert not [
            s for s in trace.root.walk() if s.kind == KIND_MORSEL
        ]

    def test_metrics_totals_match_sequential(self, tiny_tpch):
        # separate uncached sessions: the reduce cache would otherwise
        # skip the second run's scans and skew the totals
        from repro.core.compute import NestedRelationalStrategy

        with collect() as seq_m:
            repro.connect(tiny_tpch, plan_cache=False).prepare(SQL).execute(
                strategy=NestedRelationalStrategy(backend=VectorBackend())
            )
        with collect() as par_m:
            repro.connect(tiny_tpch, plan_cache=False).prepare(SQL).execute(
                strategy=NestedRelationalStrategy(
                    backend=VectorBackend(
                        threads=3, min_partition_rows=1
                    )
                )
            )
        assert par_m.counters == seq_m.counters

    def test_morsels_reconcile_and_rows_are_identical(self, tiny_tpch_nulls):
        # every fanned-out operator's morsel children re-describe its
        # own input and output, and the answer is the one-morsel answer
        # row for row (morsels only compute positions and masks)
        from repro.core.compute import NestedRelationalStrategy

        def run(threads):
            strategy = NestedRelationalStrategy(
                backend=VectorBackend(threads=threads, min_partition_rows=1)
            )
            session = repro.connect(tiny_tpch_nulls, plan_cache=False)
            with collect() as m:
                result, trace = session.prepare(SQL).trace(strategy=strategy)
            assert not trace_invariant_violations(trace)
            assert not reconcile_with_metrics(trace, m.counters)
            return result, trace

        one, one_trace = run(1)
        many, many_trace = run(2)
        assert many.rows == one.rows
        assert not [s for s in one_trace.spans() if s.kind == KIND_MORSEL]
        fanned = [
            s for s in many_trace.spans()
            if any(c.kind == KIND_MORSEL for c in s.children)
        ]
        assert {"vec-left-outer-hash-join", "vec-nest-link"} <= {
            s.name for s in fanned
        }
        for span in fanned:
            morsels = [c for c in span.children if c.kind == KIND_MORSEL]
            assert span.attrs["parts"] == len(morsels)
            assert span.attrs["threads"] == 2
            for counter in ("rows_in", "rows_out"):
                assert span.counters[counter] == sum(
                    m.counters[counter] for m in morsels
                ), (span.name, counter)

    def test_nest_link_groups_and_charges_once(self, tiny_tpch, monkeypatch):
        # the partitioned nest-link used to group (and charge "nest
        # grouping") once to pick partitions and again per partition
        from repro.core.compute import NestedRelationalStrategy

        def grouping_charges(threads):
            governor = ResourceGovernor(memory_limit_mb=1024)
            charges = []
            charge = governor.charge
            monkeypatch.setattr(
                governor, "charge",
                lambda nbytes, what="": (
                    charges.append(what), charge(nbytes, what)
                ),
            )
            strategy = NestedRelationalStrategy(
                backend=VectorBackend(threads=threads, min_partition_rows=1)
            )
            query = repro.connect(tiny_tpch).prepare(SQL).query
            from repro.core import planner

            with governed(governor):
                planner.run(query, tiny_tpch, strategy)
            return [c for c in charges if c == "nest grouping"], charges

        one, all_one = grouping_charges(1)
        many, all_many = grouping_charges(2)
        assert one and many == one
        assert sorted(all_many) == sorted(all_one)
