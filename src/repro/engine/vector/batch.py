"""Batches: a schema plus one :class:`Vector` per column.

A :class:`Batch` is the columnar counterpart of
:class:`~repro.engine.relation.Relation` — same
:class:`~repro.engine.schema.Schema`, same bag semantics, but values
live in column arrays instead of row tuples.  All batch kernels
(:mod:`repro.engine.vector.kernels`) consume and produce batches; the
boundary back to rows is crossed exactly once, in
``VectorBackend.finalize``.

A take moves no value: every column of its output is a *deferred*
vector over the input column's source (:func:`~.column.take_columns`),
gathered the first time something reads it — a filter over a wide
table, a join or a selection tail pays only for the columns the rest of
the query reads.  Structural ops (:meth:`Batch.project`,
:meth:`Batch.concat_columns`, :meth:`Batch.with_column`) share the
column objects, deferred or not.

A base table's image is the table itself: every base table is columns
(:class:`~repro.engine.colstore.StoredRelation`), encoded once when
the table is built, so :func:`table_batch` converts and copies nothing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence

import numpy as np

from ..relation import Relation
from ..schema import Schema
from .column import Vector, encode_rows, pad_index, take_columns

if TYPE_CHECKING:
    from ..catalog import Table


class Batch:
    """A schema plus parallel column vectors of equal length.

    A batch may keep the build indexes of the equi-joins that build on
    it (:func:`~.kernels.build_index`), so they live exactly as long as
    the batch: a reduce-memo image's for as long as the memo keeps the
    image, a transient batch's for its execution.  A base table's
    stored batch, shared by every execution, keeps none
    (*keeps_indexes* False).
    """

    __slots__ = ("schema", "columns", "length", "_indexes")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Vector],
        length: int,
        keeps_indexes: bool = True,
    ):
        self.schema = schema
        self.columns: List[Vector] = list(columns)
        self.length = length
        #: None until an index is kept; False for "keeps none"
        self._indexes: Any = None if keeps_indexes else False

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self.schema!r}, {self.length} rows)"

    # ------------------------------------------------------------------ #
    # Conversion
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_relation(rel: Relation) -> "Batch":
        rows = rel.rows
        return Batch(rel.schema, encode_rows(rows, len(rel.schema)), len(rows))

    def to_relation(self) -> Relation:
        if not self.columns:
            return Relation(self.schema, [() for _ in range(self.length)])
        return Relation.from_columns(
            self.schema, [v.tolist_sql() for v in self.columns]
        )

    # ------------------------------------------------------------------ #
    # Column access
    # ------------------------------------------------------------------ #

    def column(self, ref: str) -> Vector:
        return self.columns[self.schema.index_of(ref)]

    def kept_indexes(self) -> Optional[dict]:
        """The build indexes kept on this batch, by key (made on first
        use; two threads that ask at once may each make one and an
        index kept in the other is built again), or None when the batch
        keeps none."""
        kept = self._indexes
        if kept is None:
            kept = self._indexes = {}
        return kept if kept is not False else None

    # ------------------------------------------------------------------ #
    # Structural ops (all zero-copy on the vectors where possible)
    # ------------------------------------------------------------------ #

    def rename_table(self, table: str) -> "Batch":
        return Batch(self.schema.rename_table(table), self.columns, self.length)

    def project(
        self, refs: Sequence[str], schema: Optional[Schema] = None
    ) -> "Batch":
        """The columns *refs*, in that order.  The schema is *schema*
        when given (a plan's, already derived), else this batch's own
        when *refs* are its names, else derived here."""
        if schema is None:
            schema = self.schema
            if tuple(refs) != schema.names:
                schema = schema.project(refs)
        idx = self.schema.indices_of(refs)
        return Batch(schema, [self.columns[i] for i in idx], self.length)

    def take(self, idx: np.ndarray) -> "Batch":
        """The rows at *idx*, every column deferred (no gather yet)."""
        return Batch(self.schema, take_columns(self.columns, idx), len(idx))

    def take_padded(self, idx: np.ndarray) -> "Batch":
        """The rows at *idx*, deferred; ``-1`` positions become all-NULL
        rows.  The pad mask and the clipped index are computed once for
        all columns (without pads this is :meth:`take`)."""
        if self.length == 0:
            # nothing to gather from: each column pads itself
            columns = [c.take_padded(idx) for c in self.columns]
        else:
            columns = take_columns(self.columns, *pad_index(idx))
        return Batch(self.schema, columns, len(idx))

    def with_column(self, column, vector: Vector) -> "Batch":
        """This batch extended by one more column on the right."""
        return Batch(
            Schema(tuple(self.schema.columns) + (column,)),
            self.columns + [vector],
            self.length,
        )

    @staticmethod
    def concat_columns(left: "Batch", right: "Batch") -> "Batch":
        """Side-by-side concatenation (the join output layout)."""
        assert left.length == right.length
        return Batch(
            left.schema.concat(right.schema),
            left.columns + right.columns,
            left.length,
        )

    @staticmethod
    def vstack(parts: Sequence["Batch"]) -> "Batch":
        """Row-wise concatenation of batches with equal schemas, one
        copy per column.

        Outputs of one operator share column kinds (they are gathers of
        the same parent columns), so the common case is a single
        ``np.concatenate`` per column; mismatched kinds (an all-NULL
        part that degraded to a different layout) fall back to the
        pairwise promoting :meth:`Vector.vstack`.
        """
        first = parts[0]
        if len(parts) == 1:
            return first
        columns = []
        for i in range(len(first.columns)):
            vecs = [b.columns[i] for b in parts]
            kind = vecs[0].kind
            if all(v.kind == kind for v in vecs):
                columns.append(
                    Vector(
                        kind,
                        np.concatenate([v.data for v in vecs]),
                        np.concatenate([v.valid for v in vecs]),
                    )
                )
            else:
                col = vecs[0]
                for v in vecs[1:]:
                    col = Vector.vstack(col, v)
                columns.append(col)
        return Batch(first.schema, columns, sum(len(b) for b in parts))


def table_batch(table: "Table") -> Batch:
    """The columnar image of a base table: its columns themselves, on
    the heap or memory-mapped (no conversion, no copy)."""
    return table.relation.stored_batch()
