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

from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from ..relation import Relation
from ..schema import Schema
from .column import Vector, encode_rows, pad_index, take_columns

if TYPE_CHECKING:
    from ..catalog import Table


class Batch:
    """A schema plus parallel column vectors of equal length."""

    __slots__ = ("schema", "columns", "length")

    def __init__(self, schema: Schema, columns: Sequence[Vector], length: int):
        self.schema = schema
        self.columns: List[Vector] = list(columns)
        self.length = length

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

    # ------------------------------------------------------------------ #
    # Structural ops (all zero-copy on the vectors where possible)
    # ------------------------------------------------------------------ #

    def rename_table(self, table: str) -> "Batch":
        return Batch(self.schema.rename_table(table), self.columns, self.length)

    def project(self, refs: Sequence[str]) -> "Batch":
        idx = self.schema.indices_of(refs)
        return Batch(
            self.schema.project(refs), [self.columns[i] for i in idx], self.length
        )

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
