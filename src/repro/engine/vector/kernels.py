"""Batch kernels: scan, filter, the hash-join family, grouping.

Every kernel processes a whole :class:`~repro.engine.vector.batch.Batch`
per call and runs under one leaf trace span (``vec-*``), charging the
same ambient metric counters the row operators charge
(``rows_scanned``, ``hash_build_rows``, ``hash_probes``,
``predicate_evals``, ``null_padded_rows``, ``rows_out``) — so weighted
costs stay comparable across backends and
:func:`repro.engine.trace.reconcile_with_metrics` holds for traced runs.

There is **one equi-join matcher**.  :func:`joint_codes` factorizes both
sides' composite keys into one shared dense code domain in ascending key
order, :func:`build_side` orders the build rows by code once and keeps a
per-code ``starts`` offset table beside them, and the probe reads
every left row's window from that table with two gathers
(:func:`probe_match`) — no per-row Python, and the only gathers
proportional to the data are the join output's.  The key semantics the
two backends must agree on live in the factorizer alone, which
reproduces the row engine's :func:`~repro.engine.types.group_key`: a
NULL component never matches, ``2`` and ``2.0`` collide, booleans do
not collide with ints.  Column kinds pick the factorizer per key column:
an ``i8`` pair is offset from its joint minimum and renumbered through
the presence table nest ids use (:func:`_densify`, no sort on a dense
domain), other numpy-comparable layouts take ``np.unique`` over the
concatenated values, and a dict over per-row ``group_key`` takes the
rest (``obj`` columns, bool next to int, strings next to numbers, ints
beyond float64 precision next to floats).  Every path equals
``np.unique``'s inverse over the concatenated keys, composite folds
included.

There is also **one residual evaluation site**, :func:`_match_pairs`,
which every join of the family (and every spill partition re-entering
it) goes through.  A predicate's truth depends only on the attributes
it mentions, so the candidate pairs are materialized as a batch of
exactly ``residual.columns()``
(:func:`_candidates`) — never all columns of both sides — and the
survivors are taken once, for the output.

Every kernel runs once over its whole input, inline on the calling
thread: it computes positions and masks, then assembles its output once
as a *take* — :meth:`Batch.take` / :meth:`Batch.take_padded`, which
record the rows each column moves and gather nothing
(:func:`~.column.take_columns`).  A column is gathered when a later
kernel, the selection tail or ``finalize`` first reads it, so a scan
filter over all sixteen ``lineitem`` columns, a block join or a ⟕
output pays only for the columns the rest of the query reads.  Charges
do not move: :func:`~repro.engine.governor.batch_nbytes` bills a
deferred column the bytes its gather will allocate.

NULL-padding convention (the paper's pk-is-NULL emptiness marker): outer
joins express the padded side as a gather index of ``-1``, which
:meth:`Batch.take_padded` turns into invalid slots — including the
synthetic ``_rid`` column, whose NULL later tells ``nest`` that a group
is empty.  Every operator's output batch, once read, is byte-identical
to what per-column fancy indexing would build (:meth:`Vector.gather`),
so the governor's charges do not depend on how or when the rows were
moved.

The left outer join can also stop at its pair index
(:func:`left_outer_join_index`): a leaf edge's nest
(:func:`~repro.engine.vector.nestlink.join_nest`) reads a few columns at
those pairs instead of the built batch.  An existential edge stops
earlier still, at each left row's pair count (:func:`match_counts`,
``bincount`` s over the join codes).  The charge is the built batch's
``batch_nbytes`` either way (:func:`outer_join_nbytes`), so no account
depends on whether the join was built.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..governor import charge_batch, charge_rows, checkpoint, current_governor
from ..metrics import current_metrics
from ..schema import Schema
from ..trace import (
    CONTRACT_EXPANDING,
    CONTRACT_FILTERING,
    CONTRACT_PRESERVING,
    Span,
    op_span,
)
from .batch import Batch
from .column import (
    FLOAT_EXACT_INT,
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_STR,
    Vector,
    take_columns,
)
from .exprs import eval_truth


def _note(span: Optional[Span], rows_in: int, rows_out: int) -> None:
    if span is not None:
        span.add("rows_in", rows_in)
        span.add("rows_out", rows_out)


def _describe_keys(
    left_keys: Sequence[str], right_keys: Sequence[str]
) -> str:
    if not left_keys:
        return "(cross)"
    return ", ".join(f"{l}={r}" for l, r in zip(left_keys, right_keys))


# --------------------------------------------------------------------- #
# Scan / filter
# --------------------------------------------------------------------- #


def scan(batch: Batch, alias: str) -> Batch:
    """Account for a base-table scan (the batch itself is cached)."""
    with op_span("vec-scan", contract=CONTRACT_PRESERVING, table=alias) as span:
        current_metrics().add("rows_scanned", len(batch))
        current_metrics().add("rows_out", len(batch))
        _note(span, len(batch), len(batch))
    return batch


def filter_batch(batch: Batch, predicate) -> Batch:
    """Keep rows whose predicate is definitely TRUE."""
    with op_span(
        "vec-filter", contract=CONTRACT_FILTERING, pred=repr(predicate)
    ) as span:
        metrics = current_metrics()
        metrics.add("predicate_evals", len(batch))
        t, _f = eval_truth(predicate, batch)
        out = batch.take(np.flatnonzero(t))
        metrics.add("rows_out", len(out))
        _note(span, len(batch), len(out))
    return out


# --------------------------------------------------------------------- #
# Shared dense join codes: the one place join-key semantics live
# --------------------------------------------------------------------- #


def _unique_kind(a: Vector, b: Vector) -> Optional[str]:
    """The layout ``np.unique`` can factorize two key columns on exactly,
    or None when only per-row ``group_key`` normalization is exact."""
    if a.kind == b.kind and a.kind in (KIND_INT, KIND_BOOL, KIND_STR):
        return a.kind
    if a.kind in (KIND_INT, KIND_FLOAT) and b.kind in (KIND_INT, KIND_FLOAT):
        for v in (a, b):
            if v.kind == KIND_INT:
                live = v.data[v.valid]
                # past float64 precision next to a float: factorized per row
                if len(live) and np.abs(live).max() >= FLOAT_EXACT_INT:
                    return None
        return KIND_FLOAT
    return None


def _unique_inverse(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """``np.unique``'s inverse as a flat int64 array, and the number of
    distinct values: each value's rank among them."""
    uniq, inv = np.unique(values, return_inverse=True)
    return np.asarray(inv, dtype=np.int64).reshape(-1), len(uniq)


def _rank_ints(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """:func:`_unique_inverse` of an int64 array, by offset from the
    minimum and :func:`_densify` — no sort when the values span a domain
    about the size of the input, as the keys of a join usually do."""
    if len(values) == 0:
        return np.empty(0, dtype=np.int64), 0
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= _RADIX_LIMIT:  # the offsets would not fit int64
        return _unique_inverse(values)
    return _densify(values - lo, hi - lo + 1)


def _column_codes(
    a: Vector, b: Vector
) -> Tuple[np.ndarray, np.ndarray, int]:
    """One key column pair factorized into a shared dense code domain,
    as ``(codes_a, codes_b, n_codes)`` (NULL slots get an arbitrary
    code; the caller masks them)."""
    kind = _unique_kind(a, b)
    if kind is None:
        mapping: dict = {}
        inv = np.array(
            [
                mapping.setdefault(key, len(mapping))
                for key in a.join_keys() + b.join_keys()
            ],
            dtype=np.int64,
        )
        n_codes = len(mapping)
    elif kind == KIND_INT:
        inv, n_codes = _rank_ints(np.concatenate([a.data, b.data]))
    else:
        if kind == KIND_FLOAT:
            values = [a.data.astype(np.float64), b.data.astype(np.float64)]
        else:
            values = [a.data, b.data]
        inv, n_codes = _unique_inverse(np.concatenate(values))
    return inv[: len(a)], inv[len(a) :], n_codes


def joint_codes(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Factorize both sides' composite join keys into one dense int64
    code domain, numbered in ascending key order: equal codes match;
    ``-1`` marks a NULL component."""
    nl, nr = len(left), len(right)
    codes_l = np.zeros(nl, dtype=np.int64)
    codes_r = np.zeros(nr, dtype=np.int64)
    null_l = np.zeros(nl, dtype=bool)
    null_r = np.zeros(nr, dtype=bool)
    for i, (lk, rk) in enumerate(zip(left_keys, right_keys)):
        a, b = left.column(lk), right.column(rk)
        ci, cr, width = _column_codes(a, b)
        if i == 0:
            codes_l, codes_r, n_codes = ci, cr, width
        else:
            combined = np.concatenate(
                [codes_l * width + ci, codes_r * width + cr]
            )
            inv, n_codes = _densify(combined, n_codes * width)
            codes_l, codes_r = inv[:nl], inv[nl:]
        null_l |= ~a.valid
        null_r |= ~b.valid
    codes_l = np.where(null_l, np.int64(-1), codes_l)
    codes_r = np.where(null_r, np.int64(-1), codes_r)
    return codes_l, codes_r


def build_side(codes_r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The shared read-only build structure of an equi-join.

    Returns ``(starts, build_rows)``: the non-NULL right positions
    stably ordered by code (ties keep build order), and per code ``c``
    of ``0..m-1`` the window ``build_rows[starts[c]:starts[c + 1]]`` of
    its rows — a ``bincount`` + ``cumsum`` over the dense codes.  Two
    sentinels close the table: ``starts[m + 1]`` repeats the total, the
    empty window of every code past the build side's largest, and
    ``starts[-1]`` is 0, so a NULL code's window ``starts[-1]``,
    ``starts[0]`` is empty.
    """
    build = np.flatnonzero(codes_r >= 0)
    codes = codes_r[build]
    counts = np.bincount(codes)
    m = len(counts)
    starts = np.zeros(m + 3, dtype=np.int64)
    np.cumsum(counts, out=starts[1 : m + 1])
    starts[m + 1] = len(build)
    return starts, build[np.argsort(codes, kind="stable")]


def probe_match(
    starts: np.ndarray,
    build_rows: np.ndarray,
    probe_codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe, build) position pairs of an equi-join.

    ``probe`` positions index *probe_codes*; ``build`` positions are
    right-side rows.  Each probe code's window is two reads
    of :func:`build_side`'s ``starts``; NULL probe codes (``-1``) and
    codes absent from the build side get an empty one — they never
    match.  Pairs come in ascending probe position, build order within
    one key.
    """
    if len(build_rows) == 0 or len(probe_codes) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    codes = np.minimum(probe_codes, len(starts) - 3)
    lo = starts[codes]
    counts = starts[codes + 1] - lo
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    li = np.repeat(np.arange(len(probe_codes), dtype=np.int64), counts)
    # pair p of a probe row whose pairs begin at q reads lo + (p - q)
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    ri = build_rows[shift + np.arange(total, dtype=np.int64)]
    return li, ri


def hash_partitions(codes: np.ndarray, n_parts: int) -> List[np.ndarray]:
    """Row positions per hash partition of a code column (ascending
    within each partition).

    NULL codes (``-1``) land in the last partition; they never match
    anyway, and outer joins must keep carrying them for padding.
    """
    if n_parts <= 1:
        return [np.arange(len(codes), dtype=np.int64)]
    part = codes % n_parts
    return [np.flatnonzero(part == p) for p in range(n_parts)]


# --------------------------------------------------------------------- #
# Hash joins
# --------------------------------------------------------------------- #


def _candidates(
    left: Batch, right: Batch, residual, li: np.ndarray, ri: np.ndarray
) -> Batch:
    """The candidate pairs ``(li, ri)`` as a batch of only the columns
    the *residual* mentions — a predicate's truth depends on nothing
    else.  References resolve against the full ``left ++ right`` schema,
    so an unknown or ambiguous one raises what evaluating over every
    column would; the batch carries those same ``Column`` objects, in
    schema order, and a predicate of literals alone gets no columns."""
    schema = left.schema.concat(right.schema)
    n_left = len(left.columns)
    positions = sorted(set(schema.indices_of(residual.columns())))
    return Batch(
        Schema(schema.columns[p] for p in positions),
        take_columns([left.columns[p] for p in positions if p < n_left], li)
        + take_columns(
            [right.columns[p - n_left] for p in positions if p >= n_left], ri
        ),
        len(li),
    )


def _join_codes(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> Tuple[np.ndarray, np.ndarray]:
    """An equi-join's build and probe, accounted, and its keys'
    :func:`joint_codes`."""
    metrics = current_metrics()
    metrics.add("hash_build_rows", len(right))
    charge_rows(len(right), len(right_keys), "hash-join build")
    metrics.add("hash_probes", len(left))
    return joint_codes(left, right, left_keys, right_keys)


def _match_pairs(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual,
    codes: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (left, right) position pairs that match on the equality keys
    and pass the *residual*, in ascending left position and build order
    within one key.  *codes* are the keys' :func:`_join_codes` when the
    caller has already accounted the build and probe.

    With no keys the candidates are the full cross product (the
    nested-loop shape the row engine uses in the same situation).
    """
    nr = len(right)
    metrics = current_metrics()
    if left_keys:
        codes_l, codes_r = (
            codes
            if codes is not None
            else _join_codes(left, right, left_keys, right_keys)
        )
        starts, build_rows = build_side(codes_r)
        li, ri = probe_match(starts, build_rows, codes_l)
    else:
        metrics.add("rows_scanned", len(left) * nr)
        li = np.repeat(np.arange(len(left), dtype=np.int64), nr)
        ri = np.tile(np.arange(nr, dtype=np.int64), len(left))
        if residual is not None:
            # the whole cross product is about to be judged: the one
            # stretch of a join kernel a deadline or cancel() could not
            # otherwise interrupt
            checkpoint("cross-join residual")
    if residual is not None and len(li):
        metrics.add("predicate_evals", len(li))
        keep, _f = eval_truth(
            residual, _candidates(left, right, residual, li, ri)
        )
        li, ri = li[keep], ri[keep]
    return li, ri


def _mask_of(n: int, li: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    if len(li):
        mask[li] = True
    return mask


def hash_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual=None,
) -> Batch:
    """Inner equi-join (plus optional residual predicate).

    Under a spill-enabled governor whose budget the build would breach,
    the join runs out-of-core instead (:mod:`repro.engine.spill`).
    """
    from ..spill import maybe_spill_hash_join

    spilled = maybe_spill_hash_join(
        left, right, left_keys, right_keys, residual, False
    )
    if spilled is not None:
        return spilled
    with op_span(
        "vec-hash-join",
        on=_describe_keys(left_keys, right_keys),
    ) as span:
        li, ri = _match_pairs(left, right, left_keys, right_keys, residual)
        out = Batch.concat_columns(left.take(li), right.take(ri))
        charge_batch(out, "hash-join output")
        current_metrics().add("rows_out", len(out))
        _note(span, len(left), len(out))
    return out


def left_outer_hash_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual=None,
) -> Batch:
    """Left outer equi-join; unmatched left rows padded with NULLs.

    The padded right side includes the child's ``_rid`` column, so the
    pk-is-NULL convention marks those rows as "empty subquery set".
    Spills to disk partitions under budget pressure, like ``hash_join``.
    """
    return left_outer_join_index(
        left, right, left_keys, right_keys, residual,
        materialize=lambda n_rows: True,
    )


def left_outer_join_index(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual,
    materialize: Callable[[int], bool],
    count: Optional[Tuple[Tuple[str, ...], Optional[np.ndarray]]] = None,
) -> Union[Batch, Tuple[np.ndarray, np.ndarray]]:
    """The left outer join as its pair index ``(all_li, all_ri)`` —
    matched pairs in ascending left position, then every unmatched left
    row against ``-1`` — or as the built batch, when the join spilled or
    ``materialize(n_rows)`` asks for it.

    With *count* ``(operands, live)`` — the *residual*'s operands as
    :func:`match_counts` takes them — no pair is formed: the index is
    ``(pairs, live_pairs)``, each left row's pair count over all right
    rows and over those the mask *live* selects (None: all).  A
    materialized join forms its pairs from the codes already computed.

    Either way the span, the metrics and the governor's
    ``"outer-join output"`` charge are those of the built batch — the
    charge is :func:`outer_join_nbytes`, made before *materialize* is
    asked: the account models the logical operator, whatever its
    consumer reads of it.
    """
    from ..spill import maybe_spill_hash_join

    spilled = maybe_spill_hash_join(
        left, right, left_keys, right_keys, residual, True
    )
    if spilled is not None:
        return spilled
    with op_span(
        "vec-left-outer-hash-join",
        contract=CONTRACT_EXPANDING,
        on=_describe_keys(left_keys, right_keys),
    ) as span:
        metrics = current_metrics()
        if count is None:
            li, ri = _match_pairs(
                left, right, left_keys, right_keys, residual
            )
            pad = np.flatnonzero(~_mask_of(len(left), li))
            n_pad = len(pad)
            n_out = len(li) + n_pad
        else:
            operands, live = count
            codes = _join_codes(left, right, left_keys, right_keys)
            pairs = match_counts(left, right, codes, operands, None)
            n_pad = int(np.count_nonzero(pairs == 0))
            n_out = int(pairs.sum()) + n_pad
        governor = current_governor()
        if governor is not None and governor.memory_limit_bytes is not None:
            governor.charge(
                outer_join_nbytes(left, right, n_out), "outer-join output"
            )
        # asked after the charge: a consumer's spill decision sees it
        build = materialize(n_out)
        if count is not None and not build:
            if operands:  # the residual judges every candidate pair
                candidates = int(_counts_at(*codes, None).sum())
                if candidates:
                    metrics.add("predicate_evals", candidates)
            out = pairs, (
                pairs
                if live is None
                else match_counts(left, right, codes, operands, live)
            )
        else:
            if count is not None:
                li, ri = _match_pairs(
                    left, right, left_keys, right_keys, residual, codes
                )
                pad = np.flatnonzero(~_mask_of(len(left), li))
            all_li = np.concatenate([li, pad])
            all_ri = np.concatenate([ri, np.full(n_pad, -1, dtype=np.int64)])
            if build:
                out = Batch.concat_columns(
                    left.take(all_li), right.take_padded(all_ri)
                )
            else:
                out = all_li, all_ri
        metrics.add("null_padded_rows", n_pad)
        metrics.add("rows_out", n_out)
        _note(span, len(left), n_out)
    return out


def match_counts(
    left: Batch,
    right: Batch,
    codes: Tuple[np.ndarray, np.ndarray],
    operands: Tuple[str, ...],
    rows: Optional[np.ndarray],
) -> np.ndarray:
    """Per left row, the number of right rows (of those the mask *rows*
    selects; None: all) that share its key and, with ``operands``
    ``(a, b)`` — a left and a right column of one ``i8``, ``str`` or
    ``bool`` kind — pass ``a <> b``, without forming a pair.

    *codes* are the equi key's :func:`joint_codes`, so equality is the
    hash join's.  With ``K`` the key, ``count(o) = cnt_K(K(o))`` with no
    operands, and ``cnt_K(K(o), b non-NULL) − cnt_{K,b}(K(o), a(o))``
    where ``a(o)`` is non-NULL, else 0, with them: ``<>`` is TRUE exactly
    when both operands are non-NULL and differ, in 3VL and 2VL alike,
    and those kinds' codes are value equality, the equality ``<>``
    negates."""
    codes_l, codes_r = codes
    if not operands:
        return _counts_at(codes_l, codes_r, rows)
    a, b = left.column(operands[0]), right.column(operands[1])
    with_b = b.valid if rows is None else rows & b.valid
    return np.where(
        a.valid,
        _counts_at(codes_l, codes_r, with_b)
        - _equal_counts(codes_l, codes_r, a, b, with_b),
        0,
    )


def _counts_at(
    codes_l: np.ndarray, codes_r: np.ndarray, rows: Optional[np.ndarray]
) -> np.ndarray:
    """Per left row, the right rows (of those the mask *rows* selects;
    None: all) with its code — one ``bincount``.  A NULL code (``-1``)
    has none."""
    build = codes_r >= 0 if rows is None else rows & (codes_r >= 0)
    n_codes = 1 + int(max(codes_l.max(initial=-1), codes_r.max(initial=-1)))
    table = np.bincount(codes_r[build], minlength=n_codes + 1)
    return table[codes_l]  # -1 reads the last slot, which is always 0


#: widest refined (key, operand) domain counted through a direct
#: ``bincount`` table, 8 bytes a slot; a wider one, or one past 64 slots
#: per input row, is densified first
_COUNT_TABLE_LIMIT = 1 << 22


def _equal_counts(
    codes_l: np.ndarray,
    codes_r: np.ndarray,
    a: Vector,
    b: Vector,
    rows: np.ndarray,
) -> np.ndarray:
    """Per left row ``o``, the right rows (of those the mask *rows*
    selects) with key code ``codes_l[o]`` and ``b`` equal to ``a[o]``:
    the key codes refined by the operands' shared codes, then one
    ``bincount``.  A NULL on either side equals nothing."""
    ca, cb, width = _column_codes(a, b)
    n_codes = 1 + int(max(codes_l.max(initial=-1), codes_r.max(initial=-1)))
    refined_l = np.maximum(codes_l, 0) * width + ca
    refined_r = np.maximum(codes_r, 0) * width + cb
    domain = max(n_codes, 1) * width
    n = len(codes_l) + len(codes_r)
    if domain > min(64 * n, _COUNT_TABLE_LIMIT):
        inv, domain = _unique_inverse(np.concatenate([refined_l, refined_r]))
        refined_l, refined_r = inv[: len(codes_l)], inv[len(codes_l) :]
    build = rows & b.valid & (codes_r >= 0)
    table = np.bincount(refined_r[build], minlength=domain)
    return np.where((codes_l >= 0) & a.valid, table[refined_l], 0)


def outer_join_nbytes(left: Batch, right: Batch, n_rows: int) -> int:
    """``batch_nbytes`` of the *n_rows*-row ``left ⟕ right`` output,
    without building it.  Every gathered column is a fresh heap array of
    its source's dtype plus a one-byte validity mask; an empty right
    side has nothing to gather from and pads with the
    :meth:`Vector.nulls` layouts (``U1`` for strings)."""
    padded = (
        right.columns
        if len(right)
        else [Vector.nulls(c.kind, 0) for c in right.columns]
    )
    return n_rows * sum(c.itemsize + 1 for c in left.columns + padded)


def semi_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual=None,
) -> Batch:
    """Left rows with at least one match (each left row at most once)."""
    with op_span(
        "vec-semi-join",
        contract=CONTRACT_FILTERING,
        on=_describe_keys(left_keys, right_keys),
    ) as span:
        li, _ri = _match_pairs(left, right, left_keys, right_keys, residual)
        out = left.take(np.flatnonzero(_mask_of(len(left), li)))
        current_metrics().add("rows_out", len(out))
        _note(span, len(left), len(out))
    return out


def anti_join(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual=None,
) -> Batch:
    """Left rows with no match."""
    with op_span(
        "vec-anti-join",
        contract=CONTRACT_FILTERING,
        on=_describe_keys(left_keys, right_keys),
    ) as span:
        li, _ri = _match_pairs(left, right, left_keys, right_keys, residual)
        out = left.take(np.flatnonzero(~_mask_of(len(left), li)))
        current_metrics().add("rows_out", len(out))
        _note(span, len(left), len(out))
    return out


# --------------------------------------------------------------------- #
# Cross joins
# --------------------------------------------------------------------- #


def cross_join(left: Batch, right: Batch, residual=None) -> Batch:
    """Cartesian product (the vector analogue of a nested-loop join)."""
    with op_span("vec-cross-join") as span:
        li, ri = _match_pairs(left, right, (), (), residual)
        out = Batch.concat_columns(left.take(li), right.take(ri))
        charge_batch(out, "cross-join output")
        current_metrics().add("rows_out", len(out))
        _note(span, len(left), len(out))
    return out


def outer_cross_join(left: Batch, right: Batch) -> Batch:
    """Cross join, except an *empty* right side NULL-pads every left row.

    Mirrors the row engine's :func:`outer_cross_join`: the padding only
    happens when the right input is empty (the virtual-Cartesian-product
    emptiness case); otherwise it is a plain cross join.
    """
    with op_span("vec-outer-cross-join", contract=CONTRACT_EXPANDING) as span:
        metrics = current_metrics()
        if len(right) == 0:
            pad = np.full(len(left), -1, dtype=np.int64)
            out = Batch.concat_columns(
                left, right.take_padded(pad)
            )
            metrics.add("null_padded_rows", len(left))
        else:
            li, ri = _match_pairs(left, right, (), (), None)
            out = Batch.concat_columns(left.take(li), right.take(ri))
        metrics.add("rows_out", len(out))
        _note(span, len(left), len(out))
    return out


# --------------------------------------------------------------------- #
# Grouping (the factorization both nest variants share)
# --------------------------------------------------------------------- #

#: ceiling on a mixed-radix product of column domains: past it the
#: running ids are re-densified (to at most ``n`` values) before the
#: next column is folded in, so ``ids * width + codes`` never wraps int64
_RADIX_LIMIT = 2 ** 62


def _column_group_codes(col: Vector) -> Tuple[np.ndarray, int]:
    """One grouping column as ``(codes, width)``: equal codes iff equal
    under SQL grouping, NULL is code 0, every code is below *width*.

    An ``i8`` column — every rid, the driver's whole nest key — is coded
    by offset from its minimum, with no sort.  The :meth:`Vector.codes`
    branch (other kinds, or an int range too wide to offset) is never
    reached by a rid key: it keeps :func:`dense_group_ids` correct over
    any columns, which is how the tests group on all of N1.
    """
    if col.kind == KIND_INT:
        info = np.iinfo(np.int64)
        lo = int(col.data.min(where=col.valid, initial=info.max))
        hi = int(col.data.max(where=col.valid, initial=info.min))
        if lo > hi:  # no live value: one all-NULL group
            return np.zeros(len(col), dtype=np.int64), 1
        if hi - lo + 2 < _RADIX_LIMIT:
            return np.where(col.valid, col.data - lo + 1, 0), hi - lo + 2
    codes = col.codes()
    return codes, int(codes.max()) + 1


def _densify(codes: np.ndarray, width: int) -> Tuple[np.ndarray, int]:
    """Codes in ``[0, width)`` renumbered ``0..n_groups-1`` (ascending,
    exactly ``np.unique``'s inverse); returns ``(ids, n_groups)``.  A
    domain about the size of the input — rids out of a join, int join
    keys — is renumbered through a presence table in O(n + width); a
    sparse one pays the one ``np.unique`` sort."""
    if width <= 4 * len(codes) + 1024:
        present = np.zeros(width, dtype=bool)
        present[codes] = True
        slots = np.flatnonzero(present)
        remap = np.empty(width, dtype=np.int64)  # read at present slots only
        remap[slots] = np.arange(len(slots), dtype=np.int64)
        return remap[codes], len(slots)
    return _unique_inverse(codes)


def dense_group_ids(
    batch: Batch, key: Sequence[str]
) -> Tuple[np.ndarray, int]:
    """Dense group ids of a non-empty *batch* over a non-empty *key*, as
    ``(ids, n_groups)``, numbered in ascending key order: the columns'
    codes combined mixed-radix into one int64 array that is densified
    once (a presence table for a rid key; no sort).  Charges nothing — the callers
    account the nest grouping and the spill partitioning scratch."""
    ids, width = _column_group_codes(batch.column(key[0]))
    for ref in key[1:]:
        codes, w = _column_group_codes(batch.column(ref))
        if width * w > _RADIX_LIMIT:
            ids, width = _densify(ids, width)
            if width * w > _RADIX_LIMIT:
                codes, w = _densify(codes, w)
        ids = ids * w + codes
        width *= w
    return _densify(ids, width)


def first_occurrences(ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of the first row of each group, indexed by group id (one
    O(n) scatter-min; every id in ``0..n_groups-1`` must occur)."""
    out = np.full(n_groups, len(ids), dtype=np.int64)
    np.minimum.at(out, ids, np.arange(len(ids), dtype=np.int64))
    return out
