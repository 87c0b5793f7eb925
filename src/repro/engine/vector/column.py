"""Columnar values: a typed numpy array plus a validity bitmap.

A :class:`Vector` stores one column of SQL values as

* ``data`` — a numpy array whose dtype is picked by the column's
  *kind* (``i8``/``f8``/``bool``/``str``/``obj``), and
* ``valid`` — a boolean mask, ``True`` where the value is present.

SQL NULL is *not* a value in ``data``; it is ``valid[i] == False`` (the
slot in ``data`` holds an arbitrary fill and must never be interpreted).
Keeping NULLs out of band is what lets the kernels evaluate three-valued
logic with plain boolean algebra: a comparison returns a pair of masks
``(true, false)`` and UNKNOWN is simply ``~(true | false)``.

Kind selection mirrors the row engine's dynamic typing: Python bools map
to ``bool`` (kept distinct from ints, as in
:func:`repro.engine.types.group_key`), ints to ``i8``, floats — or an
int/float mix — to ``f8``, strings to a fixed-width ``str`` array, and
anything else (dates, oversized ints, genuinely mixed columns) to an
``obj`` array that falls back to per-value Python semantics.

numpy ``U`` arrays drop trailing NUL characters, so a string ending in
``"\\x00"`` has no exact ``str`` layout: a column holding one, and such
a literal, take ``obj``.  A ``str`` vector therefore never holds a value
whose text was cut.

Vectors are **immutable**: nothing stores into ``data`` or ``valid``
after construction (operators build new vectors).  Three things rest on
that.  A vector remembers, lazily and once, whether it has no NULL slot
(:attr:`Vector.dense`) and a ``str`` vector its order key
(:attr:`Vector.order_key`), and arrays may be shared between vectors —
the ``present`` mask of a padded gather is the validity of every dense
column it moves.

The order key is the "normalized key" of sort implementations: each
row's code points, when all of them are ≤ 255, narrowed to one byte,
zero-padded to a multiple of 8 bytes and read as big-endian ``uint64``
words, stored word-major as a ``(words, rows)`` array.  An unsigned
compare of word tuples is then code-point order: a zero pad sorts below
every byte, which is "a proper prefix is smaller" because no stored
value ends in ``"\\x00"``, and a shorter key compares as if padded with
zero words.  It costs 8 bytes per 8 characters per row (16 B for
``U10``) and is not part of a batch's charged bytes.

Row movement is one kernel, :meth:`Vector.gather`.  Whatever the source
(heap or memory-mapped file) its output arrays are plain heap
``np.ndarray`` objects with the dtype, values and ``nbytes`` of
``data[idx]`` / ``valid[idx] & present``.

A take does not call it: it is *late materialization*.  ``take`` and
``take_padded`` (and :func:`take_columns`, which every batch take goes
through) return *deferred* vectors, each holding its source and a
:class:`Selection` — the clipped index and the ``present`` mask — shared
by every column one call moves.  A take of a deferred column composes
the selections instead (``src.gather(a, p).gather(b, q)`` is
``src.gather(a[b], p[b] & q)`` in kind, dtype, values, validity and
``nbytes``), one int64 gather per distinct selection, so a source is
always a materialized vector.  The first read of ``data`` or ``valid``
(and so of :attr:`Vector.dense` and :attr:`Vector.order_key`) gathers
the column once and keeps the arrays; a column nothing reads is never
gathered.  Immutability makes that safe without a lock, like the order
key: two threads that read at once build equal arrays.  The bytes a
pending gather will allocate are known up front
(:meth:`Vector.pending_nbytes`), so the governor charges a deferred
column what it charges the gathered one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..types import NULL, group_key, is_null

KIND_INT = "i8"
KIND_FLOAT = "f8"
KIND_BOOL = "bool"
KIND_STR = "str"
KIND_OBJ = "obj"

NUMERIC_KINDS = (KIND_INT, KIND_FLOAT)

#: ints of this magnitude and above lose precision as float64
FLOAT_EXACT_INT = 2 ** 53

_FILL = {
    KIND_INT: 0,
    KIND_FLOAT: 0.0,
    KIND_BOOL: False,
    KIND_STR: "",
    KIND_OBJ: None,
}


#: fixed-width strings up to this many bytes (``U1``, ``U2``) keep fancy
#: indexing, which copies such an item as one machine word; wider ones
#: are gathered as rows of ``uint32`` — measured 1.5-2.3x faster on
#: ``U7``-``U21``, not faster at 8 bytes and below
_NARROW_STR_ITEMSIZE = 8


def pad_index(idx: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """A padded gather index (``-1`` = NULL row) prepared once for every
    column it moves: ``(clipped, present)`` with the pads clipped to row
    0 and ``present`` False on them — or ``(idx, None)`` without pads."""
    present = idx >= 0
    if present.all():
        return idx, None
    return np.where(present, idx, 0), present


class Selection:
    """The rows one take moves: a clipped, non-negative ``idx`` and the
    ``present`` mask (None: every row present) of a pending
    :meth:`Vector.gather`, shared by every column the take moves."""

    __slots__ = ("idx", "present")

    def __init__(self, idx: np.ndarray, present: Optional[np.ndarray]):
        self.idx = idx
        self.present = present

    def then(
        self, idx: np.ndarray, present: Optional[np.ndarray]
    ) -> "Selection":
        """This selection followed by the take ``(idx, present)``."""
        if self.present is None:
            mask = present
        elif present is None:
            mask = self.present[idx]
        else:
            mask = self.present[idx] & present
        return Selection(self.idx[idx], mask)

    def masked(self, keep: np.ndarray) -> "Selection":
        """The same rows, NULL where *keep* is False."""
        mask = keep if self.present is None else self.present & keep
        return Selection(self.idx, mask)


def _recompose(
    columns: Sequence["Vector"],
    compose: Callable[[Selection], Selection],
    plain: Callable[["Vector"], "Vector"],
) -> List["Vector"]:
    """*plain* of each materialized column; each deferred one over its
    source and ``compose`` of its selection, computed once per distinct
    selection however many columns share it."""
    made: dict = {}
    out = []
    for column in columns:
        pending = column._pending
        if pending is None:
            out.append(plain(column))
            continue
        src, sel = pending
        new = made.get(id(sel))
        if new is None:
            new = made[id(sel)] = compose(sel)
        out.append(Vector._deferred(src, new))
    return out


def take_columns(
    columns: Sequence["Vector"],
    idx: np.ndarray,
    present: Optional[np.ndarray] = None,
) -> List["Vector"]:
    """The rows at *idx* (NULL where *present* is False) of every column,
    deferred: no column is gathered until something reads it."""
    sel = Selection(idx, present)
    return _recompose(
        columns,
        lambda inner: inner.then(idx, present),
        lambda column: Vector._deferred(column, sel),
    )


def mask_columns(
    columns: Sequence["Vector"], keep: np.ndarray
) -> List["Vector"]:
    """Every column NULL where *keep* is False.  A deferred column folds
    the mask into its selection instead of being read; a materialized
    one keeps its ``data`` and masks its ``valid``."""
    return _recompose(
        columns,
        lambda inner: inner.masked(keep),
        lambda column: Vector(column.kind, column.data, column.valid & keep),
    )


class Vector:
    """One column: ``data`` (numpy) + ``valid`` (bool mask, True=present).

    A deferred vector (:func:`take_columns`) leaves both slots unset and
    keeps ``(source, selection)`` in ``_pending`` until one is read.
    """

    __slots__ = ("kind", "data", "valid", "_dense", "_key", "_pending")

    def __init__(
        self,
        kind: str,
        data: np.ndarray,
        valid: np.ndarray,
        dense: Optional[bool] = None,
    ):
        self.kind = kind
        self.data = data
        self.valid = valid
        self._dense = dense
        #: None until asked; then the key array, or False for "no key"
        self._key: Any = None
        #: ``(source, Selection)`` until a deferred vector is gathered
        self._pending: Optional[Tuple["Vector", Selection]] = None

    @staticmethod
    def _deferred(src: "Vector", sel: Selection) -> "Vector":
        """The rows *sel* of the materialized *src*, not yet gathered."""
        v = Vector.__new__(Vector)
        v.kind = src.kind
        # what the gather will know without looking: a dense source's
        # rows with no pads are dense
        v._dense = True if sel.present is None and src._dense else None
        v._key = None
        v._pending = (src, sel)
        return v

    def __getattr__(self, name: str):
        # reached only when a slot is unset: ``data`` / ``valid`` of a
        # deferred vector, gathered here on first read and kept.  A
        # concurrent reader may gather too; both store equal arrays
        if name not in ("data", "valid"):
            raise AttributeError(name)
        pending = self._pending
        if pending is not None:
            src, sel = pending
            out = src.gather(sel.idx, sel.present)
            self.data = out.data
            self.valid = out.valid
            if self._dense is None:
                self._dense = out._dense
            self._pending = None  # after the arrays: a reader sees one
        return object.__getattribute__(self, name)

    def __len__(self) -> int:
        pending = self._pending
        return len(self.data) if pending is None else len(pending[1].idx)

    @property
    def itemsize(self) -> int:
        """Bytes per row of ``data``, known without gathering it."""
        pending = self._pending
        return (self.data if pending is None else pending[0].data).itemsize

    def pending_nbytes(self) -> Optional[int]:
        """The heap bytes a deferred vector's gather will allocate — a
        fresh ``data`` array plus a one-byte validity mask per row,
        whatever the source — or None once it is materialized."""
        if self._pending is None:
            return None
        return len(self) * (self.itemsize + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Vector({self.kind}, n={len(self.data)}, nulls={int((~self.valid).sum())})"

    @property
    def dense(self) -> bool:
        """Whether no slot is NULL: computed on first use, then kept —
        sound because vectors are never written after construction."""
        dense = self._dense
        if dense is None:
            dense = self._dense = bool(self.valid.all())
        return dense

    @property
    def order_key(self) -> Optional[np.ndarray]:
        """The ``(words, rows)`` ``uint64`` order key of a ``str``
        vector (see the module docstring), or None: other kinds, and a
        vector with a code point above 255.  Built on first use and kept,
        like :attr:`dense`: two threads that ask at once may both build
        it, and keep equal keys, so no lock is needed."""
        if self.kind != KIND_STR:
            return None
        key = self._key
        if key is None:
            key = self._key = _order_key(self.data)
        return None if key is False else key

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_values(values: Sequence[Any]) -> "Vector":
        """Build a vector from Python SQL values (NULL marker allowed)."""
        n = len(values)
        valid = np.ones(n, dtype=bool)
        kinds = set()
        for i, v in enumerate(values):
            if v is NULL:
                valid[i] = False
            elif isinstance(v, bool):
                kinds.add(KIND_BOOL)
            elif isinstance(v, int):
                kinds.add(KIND_INT)
            elif isinstance(v, float):
                kinds.add(KIND_FLOAT)
            elif isinstance(v, str):
                kinds.add(KIND_STR)
            else:
                kinds.add(KIND_OBJ)
        kind = _choose_kind(kinds)
        fill = _FILL[kind]
        dense = [fill if v is NULL else v for v in values]
        if kind == KIND_STR and _ends_in_nul(dense):
            kind = KIND_OBJ
        try:
            if kind == KIND_INT:
                data = np.array(dense, dtype=np.int64)
            elif kind == KIND_FLOAT:
                data = np.array(dense, dtype=np.float64)
            elif kind == KIND_BOOL:
                data = np.array(dense, dtype=bool)
            elif kind == KIND_STR:
                data = np.array(dense, dtype=str) if dense else np.array([], dtype="U1")
            else:
                data = np.empty(n, dtype=object)
                for i, v in enumerate(dense):
                    data[i] = v
        except OverflowError:
            # ints beyond int64: keep exact Python objects
            kind = KIND_OBJ
            data = np.empty(n, dtype=object)
            for i, v in enumerate(values):
                data[i] = None if v is NULL else v
        return Vector(kind, data, valid)

    @staticmethod
    def nulls(kind: str, n: int) -> "Vector":
        """A vector of *n* NULLs carried on the given kind's layout."""
        if kind == KIND_STR:
            data = np.zeros(n, dtype="U1")
        elif kind == KIND_OBJ:
            data = np.empty(n, dtype=object)
        else:
            dtype = {KIND_INT: np.int64, KIND_FLOAT: np.float64, KIND_BOOL: bool}[kind]
            data = np.zeros(n, dtype=dtype)
        return Vector(kind, data, np.zeros(n, dtype=bool))

    @staticmethod
    def from_scalar(value: Any, n: int) -> "Vector":
        """Broadcast one SQL value (or NULL) to length *n*."""
        if is_null(value):
            return Vector.nulls(KIND_INT, n)
        if isinstance(value, bool):
            return Vector(KIND_BOOL, np.full(n, value, dtype=bool), np.ones(n, bool))
        if isinstance(value, int):
            try:
                return Vector(
                    KIND_INT, np.full(n, value, dtype=np.int64), np.ones(n, bool)
                )
            except OverflowError:
                pass
        elif isinstance(value, float):
            return Vector(
                KIND_FLOAT, np.full(n, value, dtype=np.float64), np.ones(n, bool)
            )
        elif isinstance(value, str) and not value.endswith("\x00"):
            # np.full(..., dtype=str) truncates to U1; let it infer width
            return Vector(KIND_STR, np.full(n, value), np.ones(n, bool))
        data = np.empty(n, dtype=object)
        data[:] = value
        return Vector(KIND_OBJ, data, np.ones(n, bool))

    # ------------------------------------------------------------------ #
    # Row movement
    # ------------------------------------------------------------------ #

    def gather(
        self, idx: np.ndarray, present: Optional[np.ndarray] = None
    ) -> "Vector":
        """Rows at the non-negative positions *idx*; where *present* (a
        mask, or None for "everywhere") is False the slot is NULL.

        Equal in kind, dtype, values and bytes to ``Vector(kind,
        data[idx], valid[idx] & present)``, as plain heap arrays.  A
        string column wider than 8 bytes in a C-contiguous array moves
        as rows of ``uint32`` (``np.take`` along axis 0 of an ``(n,
        itemsize // 4)`` view, viewed back to the same ``U`` dtype);
        narrower strings, non-contiguous sources and the other kinds use
        fancy indexing.  A :attr:`dense` source has no mask to gather:
        its output validity *is* ``present``.
        """
        data = self.data
        if (
            self.kind == KIND_STR
            and data.itemsize > _NARROW_STR_ITEMSIZE
            and data.flags.c_contiguous
        ):
            words = data.view(np.uint32, np.ndarray).reshape(
                len(data), data.itemsize // 4
            )
            out = np.take(words, idx, axis=0).view(data.dtype).reshape(len(idx))
        else:
            out = data[idx]
        if self.dense:
            if present is None:
                return Vector(self.kind, out, np.ones(len(idx), dtype=bool), True)
            return Vector(self.kind, out, present)
        valid = self.valid[idx]
        if present is not None:
            valid &= present
        return Vector(self.kind, out, valid)

    def take(self, idx: np.ndarray) -> "Vector":
        """The rows at *idx*, deferred (:func:`take_columns`)."""
        return take_columns([self], idx)[0]

    def take_padded(self, idx: np.ndarray) -> "Vector":
        """The rows at *idx*, deferred; positions equal to ``-1`` come
        out as NULL.

        This is how outer joins pad their null-extended side without a
        separate concatenation step.
        """
        if len(self) == 0:
            # nothing to gather from: everything must be padding
            return Vector.nulls(self.kind, len(idx))
        return take_columns([self], *pad_index(idx))[0]

    @staticmethod
    def vstack(a: "Vector", b: "Vector") -> "Vector":
        """Row-wise concatenation; kinds are promoted when they differ."""
        if a.kind == b.kind:
            return Vector(
                a.kind,
                np.concatenate([a.data, b.data]),
                np.concatenate([a.valid, b.valid]),
            )
        if a.kind in NUMERIC_KINDS and b.kind in NUMERIC_KINDS:
            return Vector(
                KIND_FLOAT,
                np.concatenate(
                    [a.data.astype(np.float64), b.data.astype(np.float64)]
                ),
                np.concatenate([a.valid, b.valid]),
            )
        # an all-NULL side adopts the other side's layout
        if not a.valid.any():
            return Vector.vstack(Vector.nulls(b.kind, len(a)), b)
        if not b.valid.any():
            return Vector.vstack(a, Vector.nulls(a.kind, len(b)))
        return Vector.from_values(a.tolist_sql() + b.tolist_sql())

    # ------------------------------------------------------------------ #
    # Export / keys
    # ------------------------------------------------------------------ #

    def tolist_sql(self) -> List[Any]:
        """Python SQL values (native scalars, NULL where invalid)."""
        out = self.data.tolist()
        if self.dense:
            return out
        invalid = np.flatnonzero(~self.valid)
        for i in invalid.tolist():
            out[i] = NULL
        return out

    def join_keys(self) -> List[Any]:
        """Per-row hashable keys; ``None`` where the value is NULL.

        Keys use the row engine's :func:`~repro.engine.types.group_key`
        normalization, so ``2`` and ``2.0`` collide and booleans stay
        distinct from ints — exactly the hash-join/nest key semantics of
        the row backend.
        """
        vals = self.data.tolist()
        valid = self.valid
        return [
            group_key(v) if valid[i] else None for i, v in enumerate(vals)
        ]

    def codes(self) -> np.ndarray:
        """Dense int64 grouping codes; every NULL shares code 0.

        Values that are equal under SQL grouping share a code.  For the
        numeric / string / bool kinds this is fully vectorized via
        ``np.unique``; the ``obj`` kind falls back to a Python dict over
        :func:`~repro.engine.types.group_key`.
        """
        n = len(self.data)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.kind == KIND_OBJ:
            mapping: dict = {}
            out = np.empty(n, dtype=np.int64)
            valid = self.valid
            for i, v in enumerate(self.data.tolist()):
                if not valid[i]:
                    out[i] = 0
                    continue
                k = group_key(v)
                code = mapping.get(k)
                if code is None:
                    code = len(mapping) + 1
                    mapping[k] = code
                out[i] = code
            return out
        _, inv = np.unique(self.data, return_inverse=True)
        out = inv.astype(np.int64) + 1
        out[~self.valid] = 0
        return out


def encode_rows(rows: Sequence[Sequence[Any]], width: int) -> List[Vector]:
    """The columns of *rows* (each of *width* values), one
    :meth:`Vector.from_values` per column."""
    columns = list(zip(*rows)) if rows else [()] * width
    return [Vector.from_values(list(c)) for c in columns]


def _choose_kind(kinds: set) -> str:
    if not kinds:
        return KIND_INT
    if len(kinds) == 1:
        return next(iter(kinds))
    if kinds <= {KIND_INT, KIND_FLOAT}:
        return KIND_FLOAT
    return KIND_OBJ


def _ends_in_nul(strings: List[str]) -> bool:
    """Whether a string ends in NUL, which a numpy ``U`` array would cut
    off (joined first: one scan finds whether any NUL is there at all)."""
    return "\x00" in "".join(strings) and any(
        s.endswith("\x00") for s in strings
    )


def _order_key(data: np.ndarray):
    """The order key of a ``U`` array (module docstring), or False when
    a code point exceeds 255.  The rows narrowed to bytes lie back to
    back; word *j* of every row is read in place as a strided big-endian
    view at byte ``8 j`` and, for a row's last partial word, masked to
    the bytes that belong to the row."""
    data = np.ascontiguousarray(data)
    n, chars = len(data), data.itemsize // 4
    units = data.view(np.uint32, np.ndarray)
    if units.size and int(units.max()) > 255:
        return False
    words = -(-chars // 8)
    key = np.empty((words, n), dtype=np.uint64)
    if n == 0:
        return key
    flat = np.zeros(n * chars + 8, dtype=np.uint8)  # 8 bytes of overrun
    flat[: n * chars] = units
    for j in range(words):
        key[j] = np.ndarray(
            (n,), dtype=">u8", buffer=flat, offset=8 * j, strides=(chars,)
        )
        tail = chars - 8 * j
        if tail < 8:
            key[j] &= np.uint64(((1 << 8 * tail) - 1) << 8 * (8 - tail))
    return key
