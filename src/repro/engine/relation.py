"""Materialized flat relations.

A :class:`Relation` couples a :class:`~repro.engine.schema.Schema` with a
list of row tuples.  Rows are plain Python tuples of SQL values (see
:mod:`repro.engine.types`); the engine's row operators are functions
from relations to a relation.

Relations are *bags* (duplicates allowed), matching SQL semantics before an
explicit DISTINCT.  A base table is a
:class:`~repro.engine.colstore.StoredRelation`: columns, with its rows a
tuple built on first read.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from .schema import Column, Schema
from .types import NULL, SqlValue, is_null, row_group_key, row_sort_key

Row = Tuple[SqlValue, ...]


class Relation:
    """A schema plus a materialized bag of rows."""

    __slots__ = ("schema", "rows")

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self.schema = schema
        self.rows: List[Row] = [tuple(r) for r in rows]
        width = len(schema)
        for r in self.rows:
            if len(r) != width:
                raise SchemaError(
                    f"row arity {len(r)} does not match schema width {width}"
                )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def from_columns(
        schema: Schema, columns: Sequence[Sequence[SqlValue]]
    ) -> "Relation":
        """Rows zipped out of equal-length value columns, trusted.

        The width is checked once against the schema and raggedness
        once per column; the rows are the ``zip`` itself — no per-row
        re-tupling or arity check.  A zero-column relation cannot carry
        its row count this way; build it with ``Relation(schema, rows)``.
        """
        if len(columns) != len(schema):
            raise SchemaError(
                f"{len(columns)} column(s) do not match schema width "
                f"{len(schema)}"
            )
        if len({len(c) for c in columns}) > 1:
            raise SchemaError(
                f"ragged columns: lengths {[len(c) for c in columns]}"
            )
        out = Relation(schema)
        out.rows = list(zip(*columns))
        return out

    @staticmethod
    def from_dicts(schema: Schema, dicts: Iterable[dict]) -> "Relation":
        """Build a relation from dictionaries keyed by (bare) column name.

        Missing keys become NULL, which keeps test fixtures terse.
        """
        rows = []
        for d in dicts:
            rows.append(tuple(d.get(c.name, NULL) for c in schema.columns))
        return Relation(schema, rows)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self.rows)} rows)"

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema names and the same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return sorted(self.rows, key=row_sort_key) == sorted(
            other.rows, key=row_sort_key
        )

    def column_values(self, ref: str) -> List[SqlValue]:
        """All values of one column, in row order."""
        i = self.schema.index_of(ref)
        return [r[i] for r in self.rows]

    def distinct(self) -> "Relation":
        """Set-semantics copy: duplicates removed (NULLs group together)."""
        seen = set()
        out = []
        for r in self.rows:
            k = row_group_key(r)
            if k not in seen:
                seen.add(k)
                out.append(r)
        return Relation(self.schema, out)

    def sorted(self) -> "Relation":
        """A copy with rows in the canonical total order (for display/tests)."""
        return Relation(self.schema, sorted(self.rows, key=row_sort_key))

    def project(self, refs: Sequence[str]) -> "Relation":
        """Projection (without duplicate elimination, as in the paper)."""
        idx = self.schema.indices_of(refs)
        return Relation(
            self.schema.project(refs), [tuple(r[i] for i in idx) for r in self.rows]
        )

    def rename_table(self, table: str) -> "Relation":
        """The same rows under an alias-qualified schema."""
        return Relation(self.schema.rename_table(table), self.rows)

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render as an aligned text table (used by examples and docs)."""
        headers = [c.qualified for c in self.schema.columns]
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [len(h) for h in headers]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in cells:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if is_null(value):
        return "null"
    return str(value)
