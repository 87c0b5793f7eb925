"""Materialized flat relations.

A :class:`Relation` couples a :class:`~repro.engine.schema.Schema` with a
list of row tuples.  Rows are plain Python tuples of SQL values (see
:mod:`repro.engine.types`); the engine's row operators are functions
from relations to a relation.

Relations are *bags* (duplicates allowed), matching SQL semantics before an
explicit DISTINCT.  A base table is a
:class:`~repro.engine.colstore.StoredRelation`: columns, with its rows a
tuple built on first read.  A :class:`BuildKeepingRelation` — a reduced
block ``T_i`` on the row engine — also keeps the hash builds made on it.

``Relation(schema, rows)`` copies and checks its rows; an operator hands
over the list it has just built with :meth:`Bag.adopt` instead.
"""

from __future__ import annotations

import operator
from typing import (
    Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..errors import SchemaError
from .schema import Column, Schema
from .types import NULL, SqlValue, is_null, row_group_key, row_sort_key

Row = Tuple[SqlValue, ...]


class Bag:
    """A schema and a list of row tuples: what a flat
    :class:`Relation` and a nested relation share."""

    __slots__ = ("schema", "rows")

    @classmethod
    def adopt(cls, schema, rows: List[tuple]):
        """The trusted constructor: a relation that takes *rows* over,
        neither copied nor checked.

        Only the code that has just built *rows* — a fresh list of
        tuples of the schema's width that nothing else holds — may hand
        it over.  A list another relation holds (a base table's rows, a
        cached reduce image) must never be adopted: build with
        ``Relation(schema, rows)``, which copies (DESIGN §10).
        """
        out = cls.__new__(cls)
        out.schema = schema
        out.rows = rows
        return out


def projector(positions: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[i] for i in positions)``, resolved once."""
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


class Relation(Bag):
    """A schema plus a materialized bag of rows."""

    __slots__ = ()

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

    def kept_builds(self) -> Optional[dict]:
        """The hash builds kept on this relation, by key positions, or
        None: a relation keeps none unless it is a
        :class:`BuildKeepingRelation`."""
        return None

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
        return Relation.adopt(self.schema, out)

    def sorted(self) -> "Relation":
        """A copy with rows in the canonical total order (for display/tests)."""
        return Relation.adopt(self.schema, sorted(self.rows, key=row_sort_key))

    def project(
        self, refs: Sequence[str], schema: Optional[Schema] = None
    ) -> "Relation":
        """Projection (without duplicate elimination, as in the paper);
        *schema*, when given, is the projection's, already derived."""
        keep = projector(self.schema.indices_of(refs))
        return Relation.adopt(
            schema if schema is not None else self.schema.project(refs),
            list(map(keep, self.rows)),
        )

    def rename_table(self, table: str) -> "Relation":
        """The same rows under an alias-qualified schema."""
        return Relation(self.schema.rename_table(table), self.rows)

    # ------------------------------------------------------------------ #
    # Display
    # ------------------------------------------------------------------ #

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render as an aligned text table (used by examples and docs)."""
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        return aligned_table(
            [c.qualified for c in self.schema.columns],
            [[format_value(v) for v in row] for row in shown],
            hidden=len(self.rows) - len(shown),
        )


class BuildKeepingRelation(Relation):
    """A relation that keeps the hash builds of the equi-joins that
    build on it, so they live exactly as long as it does.

    The row backend hands Algorithm 1 its reduced blocks ``T_i`` as
    these: a reduce-memo image keeps its builds for as long as the memo
    keeps the image, and every later execution only probes.  Build one
    with :meth:`adopt`.
    """

    __slots__ = ("_builds", "__weakref__")

    @classmethod
    def adopt(cls, schema, rows: List[tuple]):
        out = super().adopt(schema, rows)
        out._builds = None
        return out

    def kept_builds(self) -> dict:
        """The builds kept so far, made on first use.  Two threads that
        ask at once may each make one, and a build kept in the other is
        built again."""
        kept = self._builds
        if kept is None:
            kept = self._builds = {}
        return kept


def aligned_table(
    headers: Sequence[str], cells: Sequence[Sequence[str]], hidden: int = 0
) -> str:
    """*cells* under *headers*, each column padded to its widest entry;
    *hidden* rows not shown are counted on a last line."""
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
    if hidden > 0:
        lines.append(f"... ({hidden} more rows)")
    return "\n".join(lines)


def format_value(value: Any) -> str:
    """A value as a table cell: NULL shows as ``null``."""
    if is_null(value):
        return "null"
    return str(value)
