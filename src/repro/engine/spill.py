"""Grace-style spill-to-disk for the two memory cliffs.

The governor's memory budget used to be a hard verdict: a hash-join
build or a nest grouping whose accounted bytes crossed
``memory_limit_mb`` raised :class:`~repro.errors.ResourceExhaustedError`.
When the governor also carries a ``spill_dir``, the budget becomes a
*spill trigger* instead: the spill-aware kernels ask
:meth:`~repro.engine.governor.ResourceGovernor.should_spill` before
materializing, and divert here when the estimate would breach the
budget.

Algorithm (classic Grace hash join, adapted to the batch kernels):

1. code both sides' join keys: the right side's rows by its build
   index (:func:`~repro.engine.vector.kernels.build_index`, dense codes
   ``0..m-1``), the left side's by probing it — the codes the join is
   about to match on, so ``code % k`` keeps matching rows together
   (:func:`join_partitions`); a NULL key (``-1``) rides in the last
   partition, and a left key the right side lacks matches nothing in
   any partition, so its row goes by its position;
2. scatter both sides into ``k`` disk partitions — temp column files
   (one raw ``.npy`` per column + validity) under a fresh directory in
   ``spill_dir``;
3. join each partition pair with the ordinary in-memory kernel, reading
   the partition columns back *memory-mapped* so only that partition's
   build structure and output are heap-resident; the scratch charge is
   released after each partition;
4. recurse on skew: a partition whose estimate still breaches the
   budget re-enters the spilling kernel (a partition is a fresh batch
   whose own build index numbers its keys anew, so it splits again)
   up to :data:`MAX_SPILL_DEPTH` levels, after which it runs in memory;
5. concatenate the partition outputs (bag semantics — cross-partition
   order is irrelevant, and root ORDER BY applies later anyway).

Nest grouping spills the same way, except only one input is scattered
(projected to the columns the nest reads) and groups stay whole per
partition (rows with equal ids over the nest
key share ``id % k``), so each partition's
:func:`~repro.engine.vector.nestlink.nest_link` sees complete groups.

Every pass is wrapped in a ``kind='spill'`` trace span (format v4)
recording ``bytes_spilled`` / ``partitions`` / ``depth``, and the
governor's ``record_spill`` account feeds the bench artifacts.  Temp
files are removed in a ``finally`` even when a partition write fails —
the ``REPRO_FAULT=spill_io`` injection proves exactly that path.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import SpillError
from .context import current, scope
from .governor import (
    EST_BYTES_PER_VALUE,
    ResourceGovernor,
    batch_nbytes,
    charge_batch,
    current_governor,
    maybe_spill_io_failure,
)
from .trace import KIND_SPILL, note_rows, op_span
from .vector import kernels, nestlink
from .vector.batch import Batch
from .vector.column import Vector

#: recursion cap for skewed partitions; beyond it the partition runs in
#: memory (its charge may then legitimately exhaust the budget).
MAX_SPILL_DEPTH = 4

#: ceiling on the fan-out of one spill pass
MAX_PARTITIONS = 64


# --------------------------------------------------------------------- #
# Estimates (mirror the charges the in-memory kernels would make)
# --------------------------------------------------------------------- #


def est_join_bytes(left, right, n_keys: int) -> int:
    """Bytes the in-memory join would account: build + output."""
    width = len(left.columns) + len(right.columns)
    out_rows = max(len(left), len(right))
    return (
        len(right) * max(1, n_keys) * EST_BYTES_PER_VALUE
        + out_rows * width * 8
    )


def est_nest_bytes(n_rows: int, n_by: int) -> int:
    """Bytes the in-memory nest grouping of *n_rows* rows would account.

    *n_by* is the width of the nesting attribute list N1, although the
    kernel groups on the narrower rid key: the account models the
    logical operator, so this is a conservative over-estimate.
    ``should_spill`` compares ``reserved + est``, so a smaller charge
    would move every later spill decision of the execution — re-basing
    it belongs with a recalibration of the spill benchmark.
    """
    return n_rows * max(1, n_by) * EST_BYTES_PER_VALUE


def nest_spills(n_rows: int, n_by: int) -> bool:
    """Whether a nest of *n_rows* rows, N1 *n_by* wide, asks to go to
    disk under the ambient governor (:func:`maybe_spill_nest_link`'s
    budget test; that function may still run it in memory)."""
    governor = current_governor()
    return (
        governor is not None
        and n_by > 0
        and n_rows > 0
        and governor.should_spill(est_nest_bytes(n_rows, n_by))
    )


def _n_partitions(est_bytes: int, governor: ResourceGovernor) -> int:
    budget = max(1, (governor.memory_limit_bytes or 1) // 2)
    k = -(-int(est_bytes) // budget)  # ceil division
    return max(2, min(MAX_PARTITIONS, k))


def _spillable(batch) -> bool:
    """Raw ``np.save`` round-trips every kind except ``obj``."""
    return all(c.kind != "obj" for c in batch.columns)


# --------------------------------------------------------------------- #
# Temp column files
# --------------------------------------------------------------------- #


def _write_partition(tmp: str, tag: str, batch, idx: np.ndarray) -> int:
    """Scatter *batch* rows at *idx* into ``tmp/tag`` column files.

    Returns the bytes written.  The injected ``spill_io`` fault fires
    before the first file of the partition, leaving earlier partitions
    on disk — the caller's ``finally`` must clean those up.
    """
    maybe_spill_io_failure()
    d = os.path.join(tmp, tag)
    os.makedirs(d)
    total = 0
    try:
        for i, col in enumerate(batch.columns):
            data = col.data[idx]
            valid = col.valid[idx]
            np.save(os.path.join(d, f"c{i}.npy"), data, allow_pickle=False)
            np.save(
                os.path.join(d, f"c{i}.valid.npy"), valid, allow_pickle=False
            )
            total += int(data.nbytes) + int(valid.nbytes)
    except OSError as exc:
        raise SpillError(
            f"spill partition write failed under {tmp!r}: {exc}"
        ) from exc
    return total


def _read_partition(tmp: str, tag: str, schema, kinds: Sequence[str]):
    """A partition back as a batch of memory-mapped vectors."""
    d = os.path.join(tmp, tag)
    vectors = []
    n = 0
    for i, kind in enumerate(kinds):
        data = np.load(
            os.path.join(d, f"c{i}.npy"), mmap_mode="r", allow_pickle=False
        )
        valid = np.load(
            os.path.join(d, f"c{i}.valid.npy"), mmap_mode="r",
            allow_pickle=False,
        )
        n = len(data)
        vectors.append(Vector(kind, data, valid))
    return Batch(schema, vectors, n)


def _make_tmp(governor: ResourceGovernor) -> str:
    # Partition files live inside the governor's per-execution
    # workspace (``spill_dir/exec-<pid>-<n>/``), never directly in the
    # shared spill_dir — concurrent executions pointed at one scratch
    # directory cannot collide, and the planner sweeps the whole
    # workspace when the execution ends.
    try:
        root = governor.spill_workspace()
        return tempfile.mkdtemp(prefix="repro-spill-", dir=root)
    except OSError as exc:
        raise SpillError(
            f"cannot create spill directory under "
            f"{governor.spill_dir!r}: {exc}"
        ) from exc


# --------------------------------------------------------------------- #
# Spilling hash join
# --------------------------------------------------------------------- #


def join_partitions(
    index: kernels.BuildIndex, left, left_keys: Sequence[str], k: int
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """The left and right row positions of each of *k* join partitions.

    Right rows go by their build *index* codes, *left* rows by their
    probe codes in it, so matching rows share a partition, and a NULL
    key (``-1``) on either side rides in the last one.  A left key the
    right side lacks is coded ``-1`` too, but matches nothing anywhere,
    so its row goes by its position instead: a ⟕ whose left keys mostly
    miss would otherwise pile nearly every left row into the last
    partition, which would then re-spill.
    """
    codes_l = index.probe(left, left_keys)
    missing = codes_l < 0
    for ref in left_keys:
        col = left.column(ref)
        if not col.dense:
            missing &= col.valid
    codes_l = np.where(
        missing, np.arange(len(codes_l), dtype=np.int64), codes_l
    )
    return (
        kernels.hash_partitions(codes_l, k),
        kernels.hash_partitions(index.codes, k),
    )


def maybe_spill_hash_join(
    left,
    right,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual,
    outer: bool,
):
    """Divert a hash join to disk partitions when the budget demands it.

    Returns the joined batch, or ``None`` when no spill applies (no
    governor/spill_dir, the estimate fits, object columns, or the
    recursion cap) — the caller then proceeds with the ordinary
    in-memory kernel.
    """
    governor = current_governor()
    if governor is None or not left_keys:
        return None
    est = est_join_bytes(left, right, len(left_keys))
    if not governor.should_spill(est):
        return None
    depth = current().spill_depth
    if depth >= MAX_SPILL_DEPTH:
        return None
    if not (_spillable(left) and _spillable(right)):
        return None
    index = kernels.build_index(right, right_keys)
    # one distinct non-NULL key cannot be split further — spilling
    # would loop on a single full-size partition
    if depth > 0 and index.n_keys() <= 1:
        return None
    k = _n_partitions(est, governor)
    name = "spill-outer-hash-join" if outer else "spill-hash-join"
    join = kernels.left_outer_hash_join if outer else kernels.hash_join
    with op_span(
        name,
        kind=KIND_SPILL,
        on=", ".join(f"{l}={r}" for l, r in zip(left_keys, right_keys)),
    ) as span:
        tmp = _make_tmp(governor)
        outputs: List = []
        spilled = 0
        try:
            parts_l, parts_r = join_partitions(index, left, left_keys, k)
            for p in range(k):
                spilled += _write_partition(tmp, f"l{p}", left, parts_l[p])
                spilled += _write_partition(tmp, f"r{p}", right, parts_r[p])
            governor.record_spill(spilled)
            kinds_l = [c.kind for c in left.columns]
            kinds_r = [c.kind for c in right.columns]
            for p in range(k):
                if len(parts_l[p]) == 0 and len(parts_r[p]) == 0:
                    continue
                # non-trivial partitions all run through the kernel, even
                # one-sided ones, so summed build/probe metrics stay
                # identical to the unspilled execution
                lp = _read_partition(tmp, f"l{p}", left.schema, kinds_l)
                rp = _read_partition(tmp, f"r{p}", right.schema, kinds_r)
                with scope(spill_depth=depth + 1):
                    out = join(lp, rp, left_keys, right_keys, residual)
                # the partition's build scratch is gone; give it back
                governor.release(
                    len(rp) * max(1, len(right_keys)) * EST_BYTES_PER_VALUE
                )
                if len(out):
                    outputs.append(out)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if not outputs:
            empty = np.empty(0, dtype=np.int64)
            result = Batch.concat_columns(left.take(empty), right.take(empty))
        else:
            result = Batch.vstack(outputs)
        if len(outputs) > 1:
            # partition outputs die after the concat; net the account
            governor.release(sum(batch_nbytes(o) for o in outputs))
            charge_batch(result, "spilled join output")
        if span is not None:
            span.add("bytes_spilled", spilled)
            span.set("partitions", k)
            span.set("depth", depth)
            note_rows(span, len(result), len(left))
    return result


# --------------------------------------------------------------------- #
# Spilling nest grouping
# --------------------------------------------------------------------- #


def maybe_spill_nest_link(batch, node):
    """Divert a nest+link pass (*node*: the plan's
    :class:`~repro.core.query_tree.NestLink`) to disk partitions under
    budget pressure.

    Groups stay whole: the partitions are cut on the ids of the same
    key the in-memory kernel groups on, so each partition's
    ``nest_link`` computes exact per-group verdicts.  Returns ``None``
    when no spill applies.
    """
    by = node.by
    if not nest_spills(len(batch), len(by)):
        return None
    governor = current_governor()
    est = est_nest_bytes(len(batch), len(by))
    depth = current().spill_depth
    if depth >= MAX_SPILL_DEPTH or not _spillable(batch):
        return None
    # only what the nest reads goes to disk: its output columns and the
    # verdict's operands, not the child columns it is about to drop
    batch = batch.project(
        list(dict.fromkeys([*by, *nestlink.verdict_refs(batch, node)]))
    )
    ids, n_groups = kernels.dense_group_ids(batch, node.key)
    if n_groups == 1:
        return None  # one group: partitioning cannot shrink the pass
    k = _n_partitions(est, governor)
    with op_span(
        "spill-nest", kind=KIND_SPILL, by=",".join(by), impl="sorted"
    ) as span:
        tmp = _make_tmp(governor)
        outputs: List = []
        spilled = 0
        try:
            parts = kernels.hash_partitions(ids, k)
            for p in range(k):
                spilled += _write_partition(tmp, f"n{p}", batch, parts[p])
            governor.record_spill(spilled)
            kinds = [c.kind for c in batch.columns]
            for p in range(k):
                bp = _read_partition(tmp, f"n{p}", batch.schema, kinds)
                with scope(spill_depth=depth + 1):
                    out = nestlink.nest_link(bp, node)
                governor.release(
                    len(bp) * max(1, len(by)) * EST_BYTES_PER_VALUE
                )
                if len(out):
                    outputs.append(out)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if not outputs:
            # every partition filtered every group out: an empty batch
            # with the nest output's layout
            empty = np.empty(0, dtype=np.int64)
            result = nestlink.nest_link(batch.take(empty), node)
        else:
            result = Batch.vstack(outputs)
        if len(outputs) > 1:
            governor.release(sum(batch_nbytes(o) for o in outputs))
            charge_batch(result, "spilled nest output")
        if span is not None:
            span.add("bytes_spilled", spilled)
            span.set("partitions", k)
            span.set("depth", depth)
            note_rows(span, len(result), len(batch))
    return result
