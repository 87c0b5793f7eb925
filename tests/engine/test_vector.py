"""Unit tests for the columnar batch engine.

Covers the :class:`Vector`/:class:`Batch` data layout (NULL bitmaps,
kind inference, padding gathers), the three-valued expression kernels,
the join kernels' NULL-key semantics, the grouping kernel's ids, and — end to end — the full linking-operator matrix evaluated
under the vector backend against the tuple-iteration oracle on the
paper's R/S/T data.
"""

from __future__ import annotations

import datetime
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engine import NULL, Column, Schema
from repro.engine.expressions import And, Col, Comparison, Literal, Not, Or
from repro.engine.metrics import collect
from repro.engine.types import group_key
from repro.engine.trace import (
    reconcile_with_metrics,
    trace_invariant_violations,
)
from repro.engine.vector import Batch, Vector
from repro.engine.vector import kernels
from repro.engine.vector.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJ,
    KIND_STR,
)
from repro.engine.vector.exprs import eval_truth


def batch_of(**cols) -> Batch:
    """A test batch from ``name=[values]`` keyword columns."""
    names = list(cols)
    vectors = [Vector.from_values(cols[n]) for n in names]
    n = len(next(iter(cols.values()))) if cols else 0
    return Batch(Schema([Column(n) for n in names]), vectors, n)


class TestVector:
    def test_kind_inference(self):
        assert Vector.from_values([1, 2, 3]).kind == KIND_INT
        assert Vector.from_values([1, 2.5]).kind == KIND_FLOAT
        assert Vector.from_values([True, False]).kind == KIND_BOOL
        assert Vector.from_values(["a", "bb"]).kind == KIND_STR
        assert Vector.from_values([True, 1]).kind == KIND_OBJ

    def test_nulls_are_out_of_band(self):
        v = Vector.from_values([1, NULL, 3])
        assert v.kind == KIND_INT
        assert v.valid.tolist() == [True, False, True]
        assert v.tolist_sql() == [1, NULL, 3]

    def test_int64_overflow_falls_back_to_objects(self):
        big = 2**70
        v = Vector.from_values([1, big])
        assert v.kind == KIND_OBJ
        assert v.tolist_sql() == [1, big]

    def test_from_scalar_keeps_full_string_width(self):
        # np.full(..., dtype=str) would truncate to one character
        v = Vector.from_scalar("1993-01-01", 3)
        assert v.tolist_sql() == ["1993-01-01"] * 3

    def test_take_padded_nulls_negative_positions(self):
        v = Vector.from_values([10, 20, 30])
        out = v.take_padded(np.array([2, -1, 0]))
        assert out.tolist_sql() == [30, NULL, 10]

    def test_take_padded_from_empty_source(self):
        v = Vector.from_values([])
        out = v.take_padded(np.array([-1, -1]))
        assert out.tolist_sql() == [NULL, NULL]

    def test_vstack_promotes_int_and_float(self):
        out = Vector.vstack(
            Vector.from_values([1, 2]), Vector.from_values([0.5])
        )
        assert out.kind == KIND_FLOAT
        assert out.tolist_sql() == [1.0, 2.0, 0.5]

    def test_vstack_all_null_side_adopts_other_kind(self):
        out = Vector.vstack(
            Vector.nulls(KIND_INT, 2), Vector.from_values(["x"])
        )
        assert out.tolist_sql() == [NULL, NULL, "x"]

    def test_join_keys_numeric_collision_bool_distinct(self):
        # same normalization as the row engine's group_key
        ints = Vector.from_values([2, 1, NULL]).join_keys()
        floats = Vector.from_values([2.0, 1.0, 3.0]).join_keys()
        bools = Vector.from_values([True, False, True]).join_keys()
        assert ints[0] == floats[0]
        assert ints[2] is None
        assert bools[0] != ints[1]


# --------------------------------------------------------------------- #
# The one gather kernel
# --------------------------------------------------------------------- #

#: string widths on both sides of the uint32-row threshold (itemsize 8)
STR_WIDTHS = (1, 2, 3, 7, 21)
GATHER_KINDS = [KIND_INT, KIND_FLOAT, KIND_BOOL, KIND_OBJ] + [
    f"U{w}" for w in STR_WIDTHS
]
LAYOUTS = ("whole", "sliced", "mapped", "strided")


def _values(kind: str, n: int, offset: int):
    """*n* distinct-ish values of one gather kind."""
    if kind == KIND_INT:
        return np.arange(offset, offset + n, dtype=np.int64) * 7 - 3
    if kind == KIND_FLOAT:
        return np.arange(offset, offset + n, dtype=np.float64) / 4
    if kind == KIND_BOOL:
        return (np.arange(offset, offset + n) % 3 == 0)
    if kind == KIND_OBJ:
        data = np.empty(n, dtype=object)
        for i in range(n):
            data[i] = datetime.date(1992, 1, 1 + (offset + i) % 28)
        return data
    width = int(kind[1:])
    return np.array(
        [f"{(offset + i) % 10}" * width for i in range(n)], dtype=kind
    )


def _source(kind, n, null_at, layout, workdir) -> Vector:
    """A source vector of *n* rows, NULL at the positions *null_at*, laid
    out whole, as a view of a longer array, as a ``.npy`` mapping or
    strided."""
    pad = 2 if layout in ("sliced", "strided") else 0
    total = 2 * n + pad if layout == "strided" else n + 2 * pad
    data = _values(kind, total, 0)
    valid = np.ones(total, dtype=bool)
    vkind = KIND_STR if kind.startswith("U") else kind
    if layout == "strided":
        valid[[2 * i for i in null_at]] = False
        return Vector(vkind, data[: 2 * n : 2], valid[: 2 * n : 2])
    valid[[pad + i for i in null_at]] = False
    if layout == "mapped":
        for name, arr in (("data", data), ("valid", valid)):
            np.save(os.path.join(workdir, f"{name}.npy"), arr)
        data = np.load(os.path.join(workdir, "data.npy"), mmap_mode="r")
        valid = np.load(os.path.join(workdir, "valid.npy"), mmap_mode="r")
    return Vector(vkind, data[pad : pad + n], valid[pad : pad + n])


def _same_vector(got: Vector, want: Vector) -> None:
    assert got.kind == want.kind
    assert type(got.data) is np.ndarray and type(got.valid) is np.ndarray
    assert got.data.dtype == want.data.dtype
    assert got.data.tolist() == want.data.tolist()
    assert got.valid.tolist() == want.valid.tolist()
    assert (
        got.data.nbytes + got.valid.nbytes
        == want.data.nbytes + want.valid.nbytes
    )
    assert got.dense == bool(want.valid.all())


@st.composite
def gathers(draw):
    kind = draw(st.sampled_from(GATHER_KINDS))
    layout = draw(st.sampled_from(LAYOUTS))
    if kind == KIND_OBJ and layout == "mapped":
        layout = "whole"  # object arrays cannot be mapped
    n = draw(st.integers(0, 9))
    if n == 0 and layout == "mapped":
        layout = "whole"  # nor can zero bytes
    null_at = draw(
        st.one_of(
            st.just([]),  # a dense source
            st.lists(st.integers(0, n - 1), max_size=n, unique=True)
            if n
            else st.just([]),
        )
    )
    shapes = [
        st.lists(st.just(-1), max_size=5),  # all pads, or nothing at all
        st.just(list(range(n - 1, -1, -1))),  # descending
    ]
    if n:
        positions = st.integers(0, n - 1)
        shapes += [
            st.lists(positions, max_size=14),  # repeats, any order
            st.lists(st.one_of(positions, st.just(-1)), max_size=14),
        ]
    idx = draw(st.one_of(shapes))
    return kind, n, null_at, layout, np.array(idx, dtype=np.int64)


class TestGather:
    """``Vector.gather`` — what ``take`` and ``take_padded`` both are —
    equals fancy indexing on every kind, layout and index shape."""

    @given(gathers(), st.booleans())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_gather_equals_fancy_indexing(self, case, warm):
        kind, n, null_at, layout, idx = case
        with tempfile.TemporaryDirectory() as workdir:
            source = _source(kind, n, null_at, layout, workdir)
            if warm:
                source.dense  # flag known before vs. computed inside
            present = idx >= 0
            padded = not present.all()
            if n == 0:
                # nothing to gather from: only padding can be asked for
                want = Vector.nulls(source.kind, len(idx))
                _same_vector(source.take_padded(idx), want)
                return
            clipped = np.where(present, idx, 0)
            want = Vector(
                source.kind,
                np.asarray(source.data)[clipped],
                np.asarray(source.valid)[clipped] & present,
            )
            _same_vector(source.gather(clipped, present), want)
            _same_vector(source.take_padded(idx), want)
            if not padded:
                _same_vector(source.gather(idx), want)
                _same_vector(source.take(idx), want)
            batch = Batch(Schema([Column("c")]), [source], n)
            _same_vector(batch.take_padded(idx).columns[0], want)
            # the source is never written: its own flag still holds
            assert source.dense == (not null_at)

    def test_dense_is_never_true_with_a_null_slot(self, tmp_path):
        from repro.engine import spill
        from repro.engine.vector import nestlink

        batch = batch_of(
            full=[1, 2, 3, 4],
            holes=[1, NULL, 3, NULL],
            text=["wide-string-one", "wide-string-two", NULL, "x"],
        )
        for column in batch.columns:
            column.dense  # known up front, so every gather inherits it
        idx = np.array([3, 0, 0, 2])
        padded = np.array([1, -1, 2])
        part = spill._write_partition(str(tmp_path), "p", batch, idx)
        assert part > 0
        reread = spill._read_partition(
            str(tmp_path), "p", batch.schema, [c.kind for c in batch.columns]
        )
        derived = {
            "take": batch.take(idx),
            "take-twice": batch.take(idx).take(np.array([1, 1])),
            "take_padded": batch.take_padded(padded),
            "take_padded-no-pads": batch.take_padded(idx),
            "take-of-padded": batch.take_padded(padded).take(np.array([1, 0])),
            "vstack": Batch.vstack([batch.take(idx), batch.take_padded(padded)]),
            "pad_columns": nestlink._pad_columns(
                batch.take(idx), ["full"], np.array([True, False, False, True])
            ),
            "spill-roundtrip": reread,
            "take-of-spill-roundtrip": reread.take(np.array([0, 2])),
        }
        for name, out in derived.items():
            for ref, column in zip(out.schema.names, out.columns):
                assert column.dense == bool(column.valid.all()), (name, ref)
        assert derived["take"].column("full").dense
        assert not derived["take_padded"].column("full").dense
        assert not derived["pad_columns"].column("full").dense


@st.composite
def take_chains(draw):
    """A source (any gather kind and layout, possibly empty) and a chain
    of batch steps over it: a take or padded take first, then takes,
    padded takes, σ* padding of column ``a``, a project + concat that
    swaps the columns, or a read that materializes ``a`` mid-chain."""
    kind, n, null_at, layout, _idx = draw(gathers())
    steps = []
    length = n
    for i in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(
            ["take", "take_padded"] if i == 0
            else ["take", "take_padded", "pad", "swap", "read"]
        ))
        if op in ("take", "take_padded"):
            if length:
                rows = st.integers(0, length - 1)
                if op == "take_padded":
                    rows = st.one_of(rows, st.just(-1))
                idx = draw(st.lists(rows, max_size=12))
            elif op == "take_padded":
                idx = draw(st.lists(st.just(-1), max_size=5))
            else:
                idx = []
            steps.append((op, np.array(idx, dtype=np.int64)))
            length = len(idx)
        elif op == "pad":
            fail = draw(st.lists(st.booleans(), min_size=length, max_size=length))
            steps.append((op, np.array(fail, dtype=bool)))
        else:
            steps.append((op, None))
    return kind, n, null_at, layout, steps


def _run_chain(batch: Batch, steps):
    """*batch* through the chain's steps, and per column the reference
    ``(source, idx, present)`` the result must equal the gather of —
    composed here with plain numpy, not by the code under test."""
    from repro.engine.vector import nestlink

    refs = {
        name: (col, np.arange(len(col), dtype=np.int64), None)
        for name, col in zip(batch.schema.names, batch.columns)
    }
    for op, arg in steps:
        if op == "take":
            batch = batch.take(arg)
            refs = {
                name: (src, idx[arg], None if present is None else present[arg])
                for name, (src, idx, present) in refs.items()
            }
        elif op == "take_padded" and len(batch) == 0:
            # nothing to gather from: every column pads itself
            batch = batch.take_padded(arg)
            refs = {
                name: (
                    Vector.nulls(src.kind, len(arg)),
                    np.arange(len(arg), dtype=np.int64),
                    None,
                )
                for name, (src, _idx, _present) in refs.items()
            }
        elif op == "take_padded":
            batch = batch.take_padded(arg)
            clipped, there = np.where(arg >= 0, arg, 0), arg >= 0
            refs = {
                name: (
                    src,
                    idx[clipped],
                    there if present is None else present[clipped] & there,
                )
                for name, (src, idx, present) in refs.items()
            }
        elif op == "pad":
            batch = nestlink._pad_columns(batch, ["a"], arg)
            src, idx, present = refs["a"]
            refs["a"] = (src, idx, ~arg if present is None else present & ~arg)
        elif op == "swap":
            batch = Batch.concat_columns(batch.project(["b"]), batch.project(["a"]))
        else:
            batch.column("a").data
    return batch, refs


class TestDeferredGathers:
    """A take records its rows and gathers nothing; a column is gathered
    once, when first read, into exactly what eager gathers would have
    built — so every charge is what it was."""

    @given(take_chains(), st.booleans())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_chains_equal_the_composed_gather(self, case, warm):
        from unittest import mock

        from repro.engine.governor import batch_nbytes

        kind, n, null_at, layout, steps = case
        with tempfile.TemporaryDirectory() as workdir:
            source = _source(kind, n, null_at, layout, workdir)
            if warm:
                source.dense
            other = Vector.from_values([NULL if i % 3 else i for i in range(n)])
            batch = Batch(Schema([Column("a"), Column("b")]), [source, other], n)
            out, refs = _run_chain(batch, steps)
            before = batch_nbytes(out)
            with mock.patch.object(
                Vector, "gather", autospec=True, side_effect=Vector.gather
            ) as gather:
                for name, column in zip(out.schema.names, out.columns):
                    calls = gather.call_count + (column._pending is not None)
                    column.data, column.valid
                    assert gather.call_count == calls, name
                    column.data, column.valid, column.dense, len(column)
                    assert gather.call_count == calls, name  # read once
            assert batch_nbytes(out) == before
            for name, column in zip(out.schema.names, out.columns):
                src, idx, present = refs[name]
                valid = np.asarray(src.valid)[idx]
                want = Vector(
                    src.kind,
                    np.asarray(src.data)[idx],
                    valid if present is None else valid & present,
                )
                _same_vector(column, want)
                assert len(column) == len(out)

    def test_memoized_image_read_by_many_threads(self, micro_tpch):
        """A reduce-memo image keeps deferred columns across queries;
        threads reading them at once — more threads than cores, switching
        every microsecond — each see what the gather builds."""
        import sys
        import threading

        session = repro.connect(micro_tpch)
        session.execute(
            "select l_orderkey from lineitem where l_quantity < 20",
            strategy="nested-relational-vectorized",
        )
        images = [image for image, _cells in session._cache._reduced.values()]
        pending = [c for b in images for c in b.columns if c._pending is not None]
        assert pending  # l_comment and friends: nothing read them
        wants = [src.gather(sel.idx, sel.present) for src, sel in
                 (column._pending for column in pending)]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        seen = [[] for _ in range(n_threads)]

        def read(out):
            barrier.wait()
            for column in pending:
                out.append((column.data, column.valid))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=read, args=(out,)) for out in seen
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for out in seen:
            assert len(out) == len(pending)
            for (data, valid), want in zip(out, wants):
                assert data.dtype == want.data.dtype
                assert data.tolist() == want.data.tolist()
                assert valid.tolist() == want.valid.tolist()
        assert all(column._pending is None for column in pending)

    def test_fig8_never_gathers_a_column_nothing_reads(self):
        """Figure 8's text on the vector engine, tables warm: the
        comment columns ride every take unread and are never gathered,
        and rows, order, Metrics and spans are the golden's."""
        import json
        from unittest import mock

        from repro.engine.vector.batch import table_batch

        from ..core.test_explain_golden import PAPER_QUERIES
        from ..core.test_preset_golden import GOLDEN_PATH, observe

        (sql,) = [p.values[1] for p in PAPER_QUERIES if p.values[0] == "fig8_q3b"]
        db = repro.tpch.generate(
            repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
        )
        strategy = "nested-relational-vectorized"
        observe(strategy, sql, db)  # warm: base-table images built
        unread = {
            ref: table_batch(db.table(table)).column(ref)
            for table, ref in (
                ("part", "part.p_comment"),
                ("partsupp", "partsupp.ps_comment"),
            )
        }
        returned = table_batch(db.table("part")).column("part.p_name")
        with mock.patch.object(
            Vector, "gather", autospec=True, side_effect=Vector.gather
        ) as gather:
            seen = observe(strategy, sql, db)
        gathered = {id(call.args[0]) for call in gather.call_args_list}
        for ref, column in unread.items():
            assert id(column) not in gathered, ref
        assert id(returned) in gathered  # the SELECT list is gathered
        with open(GOLDEN_PATH) as handle:
            assert seen == json.load(handle)[strategy]["fig8_q3b"]


class TestBatch:
    def test_relation_roundtrip_with_nulls(self, paper_db):
        rel = paper_db.relation("R")
        assert Batch.from_relation(rel).to_relation() == rel

    def test_to_relation_edges(self):
        """Zero rows, zero columns (the count survives) and all-NULL."""
        empty = batch_of(a=[], b=[]).to_relation()
        assert empty.rows == [] and empty.schema.names == ("a", "b")
        no_columns = Batch(Schema(()), [], 3).to_relation()
        assert no_columns.rows == [(), (), ()]
        nulls = batch_of(a=[NULL, NULL], b=[NULL, NULL])
        assert nulls.to_relation().rows == [(NULL, NULL), (NULL, NULL)]
        padded = batch_of(a=[1, 2], b=["x", "y"]).take_padded(
            np.array([-1, -1]))
        assert padded.to_relation().rows == [(NULL, NULL), (NULL, NULL)]

    def test_project_and_column(self):
        b = batch_of(a=[1, 2], b=["x", "y"])
        assert b.project(["b"]).to_relation().rows == [("x",), ("y",)]
        assert b.column("a").tolist_sql() == [1, 2]


class TestExprTruth:
    def masks(self, expr, **cols):
        t, f = eval_truth(expr, batch_of(**cols))
        return t.tolist(), f.tolist()

    def test_comparison_with_null_is_unknown(self):
        t, f = self.masks(
            Comparison("<", Col("a"), Literal(5)), a=[1, NULL, 9]
        )
        assert t == [True, False, False]
        assert f == [False, False, True]  # NULL row: neither true nor false

    def test_kleene_and_or_not(self):
        # UNKNOWN AND FALSE = FALSE; UNKNOWN OR TRUE = TRUE
        lt = Comparison("<", Col("a"), Literal(5))    # UNKNOWN on NULL
        false = Comparison("=", Col("b"), Literal(0))  # FALSE everywhere
        t, f = self.masks(And(lt, false), a=[NULL], b=[1])
        assert (t, f) == ([False], [True])
        true = Comparison("=", Col("b"), Literal(1))
        t, f = self.masks(Or(lt, true), a=[NULL], b=[1])
        assert (t, f) == ([True], [False])
        t, f = self.masks(Not(lt), a=[NULL], b=[1])
        assert (t, f) == ([False], [False])  # NOT UNKNOWN = UNKNOWN

    def test_mixed_int_float_comparison(self):
        t, _f = self.masks(
            Comparison("=", Col("a"), Literal(2.0)), a=[2, 3]
        )
        assert t == [True, False]


class TestJoinKernels:
    def test_null_keys_never_match(self):
        with collect():
            out = kernels.hash_join(
                batch_of(a=[1, NULL, 2]), batch_of(b=[1, NULL]), ["a"], ["b"]
            )
        assert out.to_relation().rows == [(1, 1)]

    def test_left_outer_join_pads_rid_with_null(self):
        left = batch_of(a=[1, 2])
        right = batch_of(b=[1], rid=[0])
        with collect():
            out = kernels.left_outer_hash_join(left, right, ["a"], ["b"])
        rows = sorted(out.to_relation().rows)
        assert rows == [(1, 1, 0), (2, NULL, NULL)]  # pk-is-NULL marker

    def test_semi_and_anti_partition_left(self):
        left = batch_of(a=[1, 2, NULL])
        right = batch_of(b=[2, 2])
        with collect():
            semi = kernels.semi_join(left, right, ["a"], ["b"])
            anti = kernels.anti_join(left, right, ["a"], ["b"])
        assert semi.to_relation().rows == [(2,)]
        assert sorted(anti.to_relation().rows, key=repr) == [(1,), (NULL,)]

    def test_outer_cross_join_pads_only_when_right_empty(self):
        left = batch_of(a=[1, 2])
        with collect():
            padded = kernels.outer_cross_join(left, batch_of(b=[]))
            plain = kernels.outer_cross_join(left, batch_of(b=[7]))
        assert sorted(padded.to_relation().rows) == [(1, NULL), (2, NULL)]
        assert sorted(plain.to_relation().rows) == [(1, 7), (2, 7)]


def hash_group_ids(batch: Batch, key) -> tuple:
    """The reference grouping: one Python dict over the rows' composite
    join keys (per row, first-seen order) as ``(ids, n_groups)``."""
    key_cols = [batch.column(r).join_keys() for r in key]
    mapping: dict = {}
    ids = np.empty(len(batch), dtype=np.int64)
    for i, parts in enumerate(zip(*key_cols)):
        ids[i] = mapping.setdefault(parts, len(mapping))
    return ids, len(mapping)


def ranked_group_ids(batch: Batch, key) -> tuple:
    """The ids grouping must give, label for label, as ``(ids,
    n_groups)``: each row's key tuple ranked densely in lexicographic
    order, a column's NULL below its values, values ascending (NaN
    last, ``-0.0`` equal to ``0.0``) and ``obj`` values by their first
    appearance among the live rows."""
    nan = ("nan",)  # every NaN one key
    ranks = []
    for ref in key:
        col = batch.column(ref)
        obj = col.kind == KIND_OBJ
        keys = [
            group_key(v) if obj else nan if v != v else v
            for v in col.data.tolist()
        ]
        live = col.valid.tolist()
        present = [k for k, ok in zip(keys, live) if ok]
        if obj:
            distinct = list(dict.fromkeys(present))
        else:
            distinct = sorted(
                set(present), key=lambda k: (k == nan, 0 if k == nan else k)
            )
        rank = {k: r for r, k in enumerate(distinct)}
        ranks.append([rank[k] if ok else -1 for k, ok in zip(keys, live)])
    tuples = list(zip(*ranks))
    dense = {t: i for i, t in enumerate(sorted(set(tuples)))}
    return np.array([dense[t] for t in tuples], dtype=np.int64), len(dense)


I64_MIN, I64_MAX = -(2 ** 63), 2 ** 63 - 1


#: key columns for the grouping kernel: NULL components, every kind,
#: int64 extremes and a domain wider than the presence table
GROUPING_INPUTS = [
    {"a": [1, 2, 1, NULL, NULL, 2]},
    {"a": [5, NULL, 5, NULL, 7]},
    {"a": [1, 1.0, 2, True], "b": ["x", "x", "y", "x"]},
    {"a": [NULL] * 4, "b": [1, NULL, 1, NULL]},
    {"a": ["b", "a", NULL, "", "b", "ab", "a"]},
    {"a": [I64_MAX, 5, NULL, I64_MIN, 0, I64_MAX, -(10 ** 12)]},
    {"a": [True, False, NULL, True, False], "b": [1, 0, 1, NULL, 0]},
    {"a": [True, 1, 1.0, False, 0, NULL, 2, True]},
    {
        "a": [
            datetime.date(2020, 5, 1), 2 ** 70, NULL,
            datetime.date(1999, 1, 1), 2 ** 70,
            datetime.date(2020, 5, 1),
        ]
    },
    {"a": [NULL] * 3},
    {
        "a": [1, NULL, 1, 2, NULL, 1, 1, NULL],
        "b": ["x", "x", NULL, "y", NULL, "x", NULL, NULL],
        "c": [NULL, 2.5, 2.5, NULL, NULL, NULL, NULL, 0.5],
    },
]

#: NaN and -0.0: the row engine's group_key keeps two NaN objects
#: apart, so only the ranked reference judges this input
FLOAT_EDGES = {"a": [0.0, -0.0, float("nan"), NULL, 1.5, float("nan"), -2.0]}


class TestGrouping:
    @pytest.mark.parametrize("cols", GROUPING_INPUTS)
    def test_dense_ids_agree_with_the_hash_reference(self, cols):
        """SQL grouping: NULLs group together, ``2`` and ``2.0`` share a
        group, booleans do not collide with ints."""
        batch = batch_of(**cols)
        by = list(cols)
        ids_s, n_s = kernels.dense_group_ids(batch, by)
        ids_h, n_h = hash_group_ids(batch, by)
        assert n_s == n_h
        # same partition, possibly different labels
        relabel = {}
        for s, h in zip(ids_s.tolist(), ids_h.tolist()):
            assert relabel.setdefault(s, h) == h

    @pytest.mark.parametrize("cols", GROUPING_INPUTS + [FLOAT_EDGES])
    def test_dense_ids_are_the_lexicographic_ranks(self, cols):
        """Identical ids, not only the same partition: spill partitions
        and a nest's output order are read off them."""
        batch = batch_of(**cols)
        ids, n_groups = kernels.dense_group_ids(batch, list(cols))
        want, n_want = ranked_group_ids(batch, list(cols))
        assert ids.tolist() == want.tolist() and n_groups == n_want

    @pytest.mark.parametrize("wide", [False, True])
    def test_a_padded_obj_column_ranks_by_live_appearance(self, wide):
        """A padded gather copies row 0's value into each NULL slot; an
        ``obj`` value a NULL slot copies, seen there first, still ranks
        where it first appears live."""
        src = batch_of(
            a=[datetime.date(2020, 1, 2), datetime.date(2019, 1, 1)],
            b=[2 ** 70, 7],
        )
        batch = src.take_padded(np.array([-1, 1, 0, -1, 1, 0]))
        by = ["a", "b"] if wide else ["a"]
        ids, n_groups = kernels.dense_group_ids(batch, by)
        want, n_want = ranked_group_ids(batch, by)
        assert ids.tolist() == want.tolist() == [0, 1, 2, 0, 1, 2]
        assert n_groups == n_want == 3

    def test_numeric_equivalence_groups_int_with_float(self):
        ids, n = kernels.dense_group_ids(batch_of(a=[2, 2.0, 3]), ["a"])
        assert n == 2
        assert ids[0] == ids[1] != ids[2]

    def test_first_occurrences(self):
        ids = np.array([0, 1, 0, 2, 1])
        assert kernels.first_occurrences(ids, 3).tolist() == [0, 1, 3]


#: one query per linking operator over the paper's R/S/T relations —
#: NULLs sit in the linking columns, the correlation columns and (via
#: the outer join) the synthetic _rid pk, so every branch of the
#: pk-is-NULL convention is exercised under the columnar backend.
LINKING_MATRIX = [
    pytest.param(
        "select A, D from R where exists"
        " (select E from S where F = B)",
        id="EXISTS",
    ),
    pytest.param(
        "select A, D from R where not exists"
        " (select E from S where F = B)",
        id="NOT-EXISTS",
    ),
    pytest.param(
        "select A, D from R where A in"
        " (select E from S where F = B)",
        id="IN",
    ),
    pytest.param(
        "select A, D from R where A not in"
        " (select E from S where F = B)",
        id="NOT-IN",
    ),
    pytest.param(
        "select A, D from R where A < some"
        " (select E from S where F = B)",
        id="theta-SOME",
    ),
    pytest.param(
        "select A, D from R where A >= all"
        " (select E from S where F = B)",
        id="theta-ALL",
    ),
    pytest.param(
        "select A, D from R where A > all"
        " (select E from S where F = B and exists"
        "  (select J from T where K = G))",
        id="two-level-ALL-EXISTS",
    ),
    pytest.param(
        "select A from R where not exists"
        " (select E from S where F = B and H not in"
        "  (select J from T where K = G))",
        id="two-level-NOT-EXISTS-NOT-IN",
    ),
    pytest.param(
        "select A, D from R where A in (select E from S)",
        id="uncorrelated-IN",
    ),
    pytest.param(
        "select A, D from R where A <= all (select J from T where J > 10)",
        id="uncorrelated-ALL-empty-set",
    ),
]


class TestVectorLinkingMatrix:
    @pytest.mark.parametrize("sql", LINKING_MATRIX)
    def test_matches_oracle_with_valid_trace(self, paper_db, sql):
        prepared = repro.connect(paper_db).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        with collect() as metrics:
            result, trace = prepared.trace(backend="vector")
        assert result.sorted() == oracle
        assert trace_invariant_violations(
            trace, result_cardinality=len(result)
        ) == []
        assert reconcile_with_metrics(trace, metrics.snapshot()) == []

    def test_sorted_nest_agrees(self, paper_db):
        from repro.engine.vector import VectorizedNestedRelationalStrategy

        sql = (
            "select A, D from R where A >= all"
            " (select E from S where F = B)"
        )
        prepared = repro.connect(paper_db).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        impl = VectorizedNestedRelationalStrategy()
        with collect() as metrics:
            assert prepared.execute(strategy=impl).sorted() == oracle
        counts = metrics.snapshot()
        assert counts["rows_sorted"] == counts["rows_nested"] > 0
