"""Batch kernels: scan, filter, the hash-join family, grouping.

Every kernel processes a whole :class:`~repro.engine.vector.batch.Batch`
per call and runs under one leaf trace span (``vec-*``), charging the
same ambient metric counters the row operators charge
(``rows_scanned``, ``hash_build_rows``, ``hash_probes``,
``predicate_evals``, ``null_padded_rows``, ``rows_out``) — so weighted
costs stay comparable across backends and
:func:`repro.engine.trace.reconcile_with_metrics` holds for traced runs.

There is **one equi-join matcher**, and its build belongs to the build
batch.  :func:`build_index` builds the right side's :class:`BuildIndex`
on its key columns once — each column's dictionary of sorted distinct
values, each row's code, a dictionary per composite fold (an ``i8``
domain at most :data:`BUILD_LUT_WIDTH` or about its row count wide
found with no sort, through a presence table kept as an offset lookup
table), and the build rows ordered by
code with a per-code ``starts`` offset table beside them
(:func:`build_starts`, :func:`build_rows`) — and keeps it on the batch
(:meth:`Batch.kept_indexes`).  A reduce-memo image ``T_i`` is
therefore built on once, and every later execution that reads it only
probes.  A probe maps each left key to a right code — a lookup-table
gather, or a binary search and an equality check — and reads each left
row's window from ``starts`` with two gathers (:func:`probe_match`): no
per-row Python, and the only gathers proportional to the data are the
join output's.  The key semantics the two backends must agree on are
decided per probe from the two column kinds (:func:`_probe_column`),
since one kept build may meet probe sides of several kinds, and
reproduce the row engine's :func:`~repro.engine.types.group_key`: a
NULL component never matches, ``2`` and ``2.0`` collide, booleans do
not collide with ints, ints next to floats compare as float64 unless
one is past its precision, and that case and ``obj`` columns go per
row through ``group_key``.

The same build coder numbers a nest's groups (:func:`dense_group_ids`).
Grouping differs from a join in one rule — the NULLs of a column form
one group, where a join never matches a NULL — so a column with a NULL
slot gets one more code, below every value, and the columns fold as a
build's key does.

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
earlier still, at each left row's pair count (:func:`match_counts`: the
widths of the build's windows, or a ``bincount`` of its codes under a
mask).  The charge is the built batch's ``batch_nbytes`` either way
(:func:`outer_join_nbytes`), so no account depends on whether the join
was built.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..governor import charge_batch, charge_rows, checkpoint, current_governor
from ..metrics import current_metrics
from ..schema import Schema
from ..types import group_key
from ..trace import (
    CONTRACT_EXPANDING,
    CONTRACT_FILTERING,
    CONTRACT_PRESERVING,
    note_rows,
    op_span,
)
from .batch import Batch
from .column import (
    FLOAT_EXACT_INT,
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJ,
    NUMERIC_KINDS,
    Vector,
    take_columns,
)
from .exprs import eval_truth


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
        note_rows(span, len(batch), len(batch))
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
        note_rows(span, len(out), len(batch))
    return out


# --------------------------------------------------------------------- #
# The build index: an equi-join's build side, kept on its batch
# --------------------------------------------------------------------- #


class KeyDictionary:
    """One build key column's distinct values (its NULL slots' fills
    among them), each numbered by its code, and how a probe value finds
    that code.

    ``values`` holds them in ascending order — ``int64`` for ``i8`` and
    ``bool`` (a bool as 0 / 1), ``float64``, ``U`` — and a value's code
    is its position.  A narrow integer domain also keeps ``lut``, the
    code of every offset from ``lo`` plus a closing ``-1`` slot, so its
    probe is one gather instead of a binary search.  An ``obj`` column
    has no ``values``: it numbers its values'
    :func:`~repro.engine.types.group_key` s in order of appearance.
    The float copy and the ``group_key`` map cross-kind probes read are
    made on first use and kept, like :attr:`Vector.order_key`.
    """

    __slots__ = ("kind", "values", "lo", "lut", "_keys", "_floats")

    def __init__(
        self,
        kind: str,
        values: Optional[np.ndarray],
        lo: int = 0,
        lut: Optional[np.ndarray] = None,
        keys: Optional[dict] = None,
    ):
        self.kind = kind
        self.values = values
        self.lo = lo
        self.lut = lut
        self._keys = keys
        self._floats: Optional[KeyDictionary] = None

    def __len__(self) -> int:
        return len(self._keys) if self.values is None else len(self.values)

    def lookup(self, probe: np.ndarray) -> np.ndarray:
        """Each *probe* value's code, or ``-1`` where no value equals
        it: a gather through ``lut``, else a binary search and an
        equality check."""
        lut = self.lut
        if lut is not None:
            # the offset wraps to a huge unsigned one below lo and
            # exceeds the domain above hi: clipped, both read the -1
            # slot.  Within it, lo + offset is exactly the probe value
            offset = (probe - np.int64(self.lo)).view(np.uint64)
            np.minimum(offset, len(lut) - 1, out=offset)
            return lut[offset.view(np.int64)]
        values = self.values
        if len(values) == 0:
            return np.full(len(probe), -1, dtype=np.int64)
        pos = np.searchsorted(values, probe)
        np.minimum(pos, len(values) - 1, out=pos)
        found = values[pos] == probe
        if self.kind == KIND_FLOAT and np.isnan(values[-1]):
            found |= np.isnan(probe)  # np.unique keeps one NaN, last
        return np.where(found, pos, np.int64(-1))

    def floats(self) -> "KeyDictionary":
        """An ``i8`` dictionary's values as ``float64``, for float probes
        (exact: only built when no value is past float64 precision)."""
        floats = self._floats
        if floats is None:
            floats = self._floats = KeyDictionary(
                KIND_FLOAT, self.values.astype(np.float64)
            )
        return floats

    def keys(self) -> dict:
        """``group_key(value) -> code``, for probes answered per row."""
        keys = self._keys
        if keys is None:
            values = self.values
            if self.kind == KIND_BOOL:
                values = values.astype(bool)
            keys = self._keys = {
                group_key(v): code for code, v in enumerate(values.tolist())
            }
        return keys

    def within_float_precision(self) -> bool:
        """Whether an ``i8`` dictionary converts to float64 exactly."""
        values = self.values
        return not len(values) or (
            -FLOAT_EXACT_INT < values[0] and values[-1] < FLOAT_EXACT_INT
        )


def _unique_inverse(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique``'s distinct values and inverse, as flat int64."""
    uniq, inv = np.unique(values, return_inverse=True)
    return uniq, inv.astype(np.int64).reshape(-1)


#: the widest value domain a :class:`BuildIndex` dictionary ranks
#: through a ``lut`` whatever its row count: a lut of ``2**17 + 1``
#: int64 slots, 1 MiB.  A build index is probed by every execution
#: that joins on it, so a lut that makes each probe one gather instead
#: of a binary search pays for its fill at the first probe
BUILD_LUT_WIDTH = 1 << 17


def _int_dictionary(
    values: np.ndarray, kind: str = KIND_INT, lut_width: int = 0
) -> Tuple[KeyDictionary, np.ndarray]:
    """The dictionary of the ``int64`` *values* and each value's code
    (its rank among the distinct values).  A domain about the size of
    its input — a join key's, a rid's or a fold's usually is — or at
    most *lut_width* wide is ranked with no sort, through a presence
    table of the offsets from the minimum, kept as the ``lut``; a wider
    one by ``np.unique``.  The codes are the same either way."""
    if len(values) == 0:
        return KeyDictionary(kind, np.empty(0, dtype=np.int64)), values
    lo, hi = int(values.min()), int(values.max())
    width = hi - lo + 1
    if width > max(lut_width, 4 * len(values) + 1024):
        uniq, inv = _unique_inverse(values)
        return KeyDictionary(kind, uniq), inv
    offset = values - np.int64(lo)
    present = np.zeros(width, dtype=bool)
    present[offset] = True
    slots = np.flatnonzero(present)
    # each offset's rank, -1 elsewhere and in the closing slot
    lut = np.full(width + 1, -1, dtype=np.int64)
    lut[slots] = np.arange(len(slots), dtype=np.int64)
    return KeyDictionary(kind, slots + np.int64(lo), lo, lut), lut[offset]


def _column_dictionary(
    col: Vector, lut_width: int = 0
) -> Tuple[KeyDictionary, np.ndarray]:
    """The dictionary of a build key column's values and each row's
    code (an ``i8`` or ``bool`` column's through :func:`_int_dictionary`
    with *lut_width*).  A NULL slot's fill is coded like a value — its
    row's code is masked later, and a probe that finds the fill's code
    finds no row behind it — so no column is compacted first.  An
    ``obj`` column's NULL slots are read as ``None``, not as their fill
    (a padded gather copies a live value there), so its values keep
    their order of first appearance among the live rows."""
    data = col.data
    if col.kind == KIND_INT:
        return _int_dictionary(data, KIND_INT, lut_width)
    if col.kind == KIND_BOOL:
        return _int_dictionary(data.astype(np.int64), KIND_BOOL, lut_width)
    if col.kind == KIND_OBJ:
        if not col.dense:
            data = np.where(col.valid, data, None)
        keys: dict = {}
        codes = np.fromiter(
            (keys.setdefault(group_key(v), len(keys)) for v in data.tolist()),
            dtype=np.int64,
            count=len(data),
        )
        return KeyDictionary(KIND_OBJ, None, keys=keys), codes
    uniq, inv = _unique_inverse(data)
    return KeyDictionary(col.kind, uniq), inv


def _within_float_precision(col: Vector) -> bool:
    """Whether a probe column's live values convert to float64 exactly."""
    if col.kind != KIND_INT:
        return True
    lo = int(col.data.min(where=col.valid, initial=0))
    hi = int(col.data.max(where=col.valid, initial=0))
    return -FLOAT_EXACT_INT < lo and hi < FLOAT_EXACT_INT


def _probe_column(dictionary: KeyDictionary, col: Vector) -> np.ndarray:
    """Each row of the probe column *col*: the code of the build value
    it equals, or ``-1`` (NULL, or no equal value).

    Equality is the row engine's :func:`~repro.engine.types.group_key`,
    decided here from the two kinds, since one build may meet probes of
    several: a same-kind ``i8``, ``bool``, ``f8`` or ``str`` probe looks
    its values up; ints next to floats compare as float64 unless an int
    is past its precision; that case and ``obj`` go per row; a bool
    next to a number and a string next to either never match."""
    kind, built = col.kind, dictionary.kind
    numeric = kind in NUMERIC_KINDS and built in NUMERIC_KINDS
    if kind == built and kind != KIND_OBJ:
        data = col.data.astype(np.int64) if kind == KIND_BOOL else col.data
        codes = dictionary.lookup(data)
    elif (
        numeric
        and _within_float_precision(col)
        and (built == KIND_FLOAT or dictionary.within_float_precision())
    ):
        if built == KIND_INT:
            dictionary = dictionary.floats()
        codes = dictionary.lookup(col.data.astype(np.float64))
    elif numeric or KIND_OBJ in (kind, built):
        keys = dictionary.keys()
        return np.fromiter(  # a NULL's join key is None
            (
                -1 if key is None else keys.get(key, -1)
                for key in col.join_keys()
            ),
            dtype=np.int64,
            count=len(col),
        )
    else:
        return np.full(len(col), -1, dtype=np.int64)
    return codes if col.dense else np.where(col.valid, codes, np.int64(-1))


class BuildIndex:
    """The build side of an equi-join on one batch's key columns.

    Built once per batch and key (:func:`build_index`) and probed by
    every join that builds on them: ``columns``, each key column's
    :class:`KeyDictionary`; ``folds``, per further column the
    ``(radix, dictionary)`` that numbers the composite key so far and
    the next column's code densely again; ``codes``, each row's key
    code (``-1``: a NULL component); ``n_codes``, the size of the code
    domain; ``starts``, each code's window of build rows
    (:func:`build_starts`, empty for a code only NULL fills carry); and
    ``rows``, the build rows in code order (:func:`build_rows`), made
    on first use — an existential edge counts from ``starts`` alone.
    Every ``i8`` / ``bool`` dictionary and fold keeps a ``lut`` when its
    domain is at most :data:`BUILD_LUT_WIDTH` wide (or about its row
    count), so its probe is one gather.
    """

    __slots__ = (
        "columns", "folds", "codes", "n_codes", "starts", "_rows",
        "__weakref__",
    )

    def __init__(self, batch: Batch, keys: Sequence[str]):
        self.columns: List[KeyDictionary] = []
        self.folds: List[Tuple[int, KeyDictionary]] = []
        codes = np.empty(0, dtype=np.int64)
        live = None
        for i, ref in enumerate(keys):
            col = batch.column(ref)
            dictionary, column_codes = _column_dictionary(
                col, BUILD_LUT_WIDTH
            )
            self.columns.append(dictionary)
            if i == 0:
                codes = column_codes
            else:
                radix = len(dictionary)
                fold, codes = _int_dictionary(
                    _fold(codes, radix, column_codes),
                    lut_width=BUILD_LUT_WIDTH,
                )
                self.folds.append((radix, fold))
            if not col.dense:
                live = col.valid if live is None else live & col.valid
        last = self.folds[-1][1] if self.folds else self.columns[0]
        self.n_codes = len(last)
        if live is not None:
            codes = np.where(live, codes, np.int64(-1))
        self.codes = codes
        self.starts = build_starts(codes, self.n_codes)
        self._rows: Optional[np.ndarray] = None

    @property
    def rows(self) -> np.ndarray:
        """The build rows in code order, made on first use and kept
        (two threads that ask at once keep equal arrays)."""
        rows = self._rows
        if rows is None:
            rows = self._rows = build_rows(self.codes, self.starts)
        return rows

    def n_keys(self) -> int:
        """The distinct keys of the rows with no NULL component."""
        counts = np.diff(self.starts[: self.n_codes + 1])
        return int(np.count_nonzero(counts))

    def probe(self, batch: Batch, keys: Sequence[str]) -> np.ndarray:
        """Each row of *batch*: the code of the build key its *keys*
        equal, or ``-1`` (a NULL component, or no equal key)."""
        codes = np.empty(0, dtype=np.int64)
        for i, (ref, dictionary) in enumerate(zip(keys, self.columns)):
            column_codes = _probe_column(dictionary, batch.column(ref))
            if i == 0:
                codes = column_codes
            else:
                radix, fold = self.folds[i - 1]
                codes = fold.lookup(_fold(codes, radix, column_codes))
        return codes


def _fold(
    codes: np.ndarray, radix: int, column_codes: np.ndarray
) -> np.ndarray:
    """``(codes + 1) * (radix + 1) + column_codes + 1``: a composite code
    and the next column's code (``< radix``) as one integer, in the
    pairs' lexicographic order.  A build row's components are never
    ``-1``, so a probe row with a ``-1`` component folds to a value no
    build row has."""
    return codes * (radix + 1) + column_codes + (radix + 2)


def build_index(batch: Batch, keys: Sequence[str]) -> BuildIndex:
    """*batch*'s :class:`BuildIndex` on *keys*, built on first use and
    kept on the batch (:meth:`Batch.kept_indexes`), so every later join
    that builds on this batch only probes.  Two threads that ask at
    once may both build it and keep equal indexes, so no lock is
    needed.  A batch that keeps none — a base table's stored batch —
    builds it per call."""
    keys = tuple(keys)
    kept = batch.kept_indexes()
    index = None if kept is None else kept.get(keys)
    if index is None:
        index = BuildIndex(batch, keys)
        if kept is not None:
            kept[keys] = index
    return index


def build_starts(codes_r: np.ndarray, n_codes: int) -> np.ndarray:
    """The per-code offset table of an equi-join's build side.

    For the right rows' *codes_r* (``-1``: NULL) and
    each code ``c`` of ``0..m-1`` — ``m`` at least *n_codes* — the
    window ``starts[c]:starts[c + 1]`` of :func:`build_rows`: a
    ``bincount`` + ``cumsum``.  Two sentinels close the table:
    ``starts[m + 1]`` repeats the total, the empty window of every code
    past the build side's largest, and ``starts[-1]`` is 0, so a NULL
    code's window ``starts[-1]``, ``starts[0]`` is empty.
    """
    # -1 counts in slot 0, dropped
    counts = np.bincount(codes_r + 1, minlength=n_codes + 1)[1:]
    m = len(counts)
    starts = np.zeros(m + 3, dtype=np.int64)
    np.cumsum(counts, out=starts[1 : m + 1])
    starts[m + 1] = starts[m]
    return starts


def build_rows(codes_r: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The non-NULL right positions stably ordered by code (ties keep
    build order), so code ``c``'s rows are ``[starts[c]:starts[c + 1]]``
    of it: one scatter when every row has a code of its own, else a
    stable sort."""
    total = int(starts[-2])
    if total == len(codes_r):
        build, codes = None, codes_r
    else:
        build = np.flatnonzero(codes_r >= 0)
        codes = codes_r[build]
    if total == np.count_nonzero(np.diff(starts[: len(starts) - 2])):
        rows = np.empty(total, dtype=np.int64)
        rows[starts[codes]] = (
            np.arange(total, dtype=np.int64) if build is None else build
        )
        return rows
    order = np.argsort(codes, kind="stable")
    return order if build is None else build[order]


def probe_match(
    starts: np.ndarray,
    build_rows: np.ndarray,
    probe_codes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (probe, build) position pairs of an equi-join.

    ``probe`` positions index *probe_codes*; ``build`` positions are
    right-side rows.  Each probe code's window is two reads
    of :func:`build_starts`' table; NULL probe codes (``-1``) and
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

    ``-1`` codes land in the last partition.
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


#: an equi-join's probe: each left row's code in the right side's build
#: index (``-1``: no match), and that index
Probe = Tuple[np.ndarray, BuildIndex]


def _probe(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
) -> Probe:
    """An equi-join's build and probe, accounted: the right side's
    :func:`build_index` on its keys, probed by the left side's."""
    metrics = current_metrics()
    metrics.add("hash_build_rows", len(right))
    charge_rows(len(right), len(right_keys), "hash-join build")
    metrics.add("hash_probes", len(left))
    index = build_index(right, right_keys)
    return index.probe(left, left_keys), index


def _match_pairs(
    left: Batch,
    right: Batch,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual,
    probe: Optional[Probe] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (left, right) position pairs that match on the equality keys
    and pass the *residual*, in ascending left position and build order
    within one key.  *probe* is the keys' :func:`_probe` when the caller
    has already accounted the build and probe.

    With no keys the candidates are the full cross product (the
    nested-loop shape the row engine uses in the same situation).
    """
    nr = len(right)
    metrics = current_metrics()
    if left_keys:
        codes_l, index = (
            probe
            if probe is not None
            else _probe(left, right, left_keys, right_keys)
        )
        li, ri = probe_match(index.starts, index.rows, codes_l)
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
        note_rows(span, len(out), len(left))
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
            keys = (left_keys, right_keys)
            probe = _probe(left, right, left_keys, right_keys)
            pairs = match_counts(left, right, keys, probe, operands, None)
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
                candidates = int(_counts_at(*probe, None).sum())
                if candidates:
                    metrics.add("predicate_evals", candidates)
            out = pairs, (
                pairs
                if live is None
                else match_counts(left, right, keys, probe, operands, live)
            )
        else:
            if count is not None:
                li, ri = _match_pairs(
                    left, right, left_keys, right_keys, residual, probe
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
        note_rows(span, n_out, len(left))
    return out


def match_counts(
    left: Batch,
    right: Batch,
    keys: Tuple[Sequence[str], Sequence[str]],
    probe: Probe,
    operands: Tuple[str, ...],
    rows: Optional[np.ndarray],
) -> np.ndarray:
    """Per left row, the number of right rows (of those the mask *rows*
    selects; None: all) that share its key and, with ``operands``
    ``(a, b)`` — a left and a right column of one ``i8``, ``str`` or
    ``bool`` kind — pass ``a <> b``, without forming a pair.

    *probe* is the equi key's :func:`_probe` on *keys* ``(left_keys,
    right_keys)``, so equality is the hash join's.  With ``K`` the key,
    ``count(o) = cnt_K(K(o))`` with no operands, and ``cnt_K(K(o), b
    non-NULL) − cnt_{K,b}(K(o), a(o))`` where ``a(o)`` is non-NULL, else
    0, with them: ``<>`` is TRUE exactly when both operands are non-NULL
    and differ, in 3VL and 2VL alike, and those kinds' key equality is
    value equality, the equality ``<>`` negates."""
    codes_l, index = probe
    if not operands:
        return _counts_at(codes_l, index, rows)
    a, b = left.column(operands[0]), right.column(operands[1])
    if b.dense:
        with_b = rows
    else:
        with_b = b.valid if rows is None else rows & b.valid
    return np.where(
        a.valid,
        _counts_at(codes_l, index, with_b)
        - _equal_counts(left, right, keys, operands, rows),
        0,
    )


def _counts_at(
    codes_l: np.ndarray, index: BuildIndex, rows: Optional[np.ndarray]
) -> np.ndarray:
    """Per left row, the right rows (of those the mask *rows* selects;
    None: all) with its code: with no mask the width of its window in
    the index's ``starts``, else one ``bincount``.  A NULL or absent
    code (``-1``) has none."""
    if rows is None:
        starts = index.starts  # -1 reads starts[-1] and starts[0], both 0
        return starts[codes_l + 1] - starts[codes_l]
    codes_r = index.codes
    table = np.bincount(
        codes_r[rows & (codes_r >= 0)], minlength=index.n_codes + 1
    )
    return table[codes_l]  # -1 reads the last slot, which is always 0


def _equal_counts(
    left: Batch,
    right: Batch,
    keys: Tuple[Sequence[str], Sequence[str]],
    operands: Tuple[str, str],
    rows: Optional[np.ndarray],
) -> np.ndarray:
    """Per left row ``o``, the right rows (of those the mask *rows*
    selects) with its key and ``b`` equal to ``a[o]``: the counts of the
    right side's ``(key…, b)`` build index at the left side's ``(key…,
    a)`` probe.  A NULL on either side equals nothing."""
    left_keys, right_keys = keys
    a, b = operands
    index = build_index(right, (*right_keys, b))
    return _counts_at(index.probe(left, (*left_keys, a)), index, rows)


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
        note_rows(span, len(out), len(left))
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
        note_rows(span, len(out), len(left))
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
        note_rows(span, len(out), len(left))
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
        note_rows(span, len(out), len(left))
    return out


# --------------------------------------------------------------------- #
# Grouping: the build coder, with NULL as a code of its own
# --------------------------------------------------------------------- #


def _group_codes(col: Vector) -> Tuple[np.ndarray, int]:
    """One grouping column's codes and their radix: its build codes
    (:func:`_column_dictionary`, exactly as a join build codes it), and
    in a column with a NULL slot each code plus one, NULL ``0`` — one
    code of its own below every value, since grouping, unlike a join,
    puts the NULLs together."""
    dictionary, codes = _column_dictionary(col)
    if col.dense:
        return codes, len(dictionary)
    return np.where(col.valid, codes + 1, np.int64(0)), len(dictionary) + 1


def dense_group_ids(
    batch: Batch, key: Sequence[str]
) -> Tuple[np.ndarray, int]:
    """Dense group ids of a non-empty *batch* over a non-empty *key*, as
    ``(ids, n_groups)``: each row's key tuple ranked densely in
    lexicographic order — NULL first, values ascending, ``obj`` values
    by first appearance.  The columns' :func:`_group_codes` are folded
    as a join build folds its key (:func:`_fold`) and renumbered by
    :func:`_int_dictionary` after each fold, so the ids stay below the
    row count and no fold wraps int64; a dense column's codes are dense
    already.  Charges nothing — the callers account the nest grouping
    and the spill partitioning scratch."""
    col = batch.column(key[0])
    ids, n_groups = _group_codes(col)
    if len(key) == 1 and not col.dense:  # a fill's code may be a gap
        dictionary, ids = _int_dictionary(ids)
        n_groups = len(dictionary)
    for ref in key[1:]:
        codes, radix = _group_codes(batch.column(ref))
        dictionary, ids = _int_dictionary(_fold(ids, radix, codes))
        n_groups = len(dictionary)
    return ids, n_groups


def first_occurrences(ids: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of the first row of each group, indexed by group id (one
    O(n) scatter-min; every id in ``0..n_groups-1`` must occur)."""
    out = np.full(n_groups, len(ids), dtype=np.int64)
    np.minimum.at(out, ids, np.arange(len(ids), dtype=np.int64))
    return out
