"""The database catalog: named tables, keys, constraints, indexes.

A :class:`Database` is the unit the SQL front-end and the strategies run
against.  Besides rows, it records the metadata the paper's experiments
turn on:

* **primary keys** — the nested relational approach keeps each block's
  primary key through outer joins and uses "PK is NULL" to recognise an
  empty subquery result (paper Section 3, Example 1);
* **NOT NULL constraints** — the emulated commercial optimizer only uses
  the antijoin rewrite for ``ALL`` / ``NOT IN`` when the linked attribute
  is declared NOT NULL (paper Section 5.2, Query 1 discussion);
* **indexes** — nested-iteration plans probe them instead of scanning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence, Tuple

from ..errors import CatalogError
from .index import HashIndex
from .relation import Relation, Row
from .schema import Column, Schema

if TYPE_CHECKING:
    from .colstore import StoredRelation


@dataclass
class Table:
    """A named base relation plus its constraints and indexes."""

    name: str
    relation: "StoredRelation"
    primary_key: Optional[str] = None
    hash_indexes: Dict[Tuple[str, ...], HashIndex] = field(default_factory=dict)

    @property
    def schema(self) -> Schema:
        return self.relation.schema

    def not_null(self, ref: str) -> bool:
        """Whether column *ref* carries a NOT NULL constraint."""
        return self.schema.column(ref).not_null

    def hash_index_on(self, refs: Sequence[str]) -> Optional[HashIndex]:
        return self.hash_indexes.get(tuple(refs))

    def any_hash_index_covering(
        self, refs: Sequence[str]
    ) -> Optional[Tuple[HashIndex, Tuple[str, ...]]]:
        """An index whose key is a subset of *refs*, preferring wider keys.

        Mirrors the paper's observation that System A picks the combined
        ``(l_partkey, l_suppkey)`` index when both columns are constrained
        and falls back to a single-column index otherwise.
        """
        best: Optional[Tuple[HashIndex, Tuple[str, ...]]] = None
        ref_set = set(refs)
        for key, idx in self.hash_indexes.items():
            if set(key) <= ref_set:
                if best is None or len(key) > len(best[1]):
                    best = (idx, key)
        return best


class Database:
    """A collection of named tables.

    Every base table is columns — a
    :class:`~repro.engine.colstore.StoredRelation`, heap arrays encoded
    once when the table is built or a store's mapped files — and its
    rows a tuple built on first read, so :meth:`mutate_table` is the
    only way they change.  Every catalog change (table creation/removal,
    index builds, row writes) bumps :attr:`version`.  Anything derived
    from the base tables — a session's compiled plans, strategy routes
    and reduced builds — is valid for exactly one ``(Database object,
    version)`` pair.
    """

    def __init__(self) -> None:
        self.tables: Dict[str, Table] = {}
        self.version = 0

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        rows: Iterable[Row] = (),
        primary_key: Optional[str] = None,
    ) -> Table:
        """Create and register a table.

        Columns are re-qualified under the table name so that joins over
        multiple tables resolve references unambiguously.  The rows are
        encoded into the table's columns once, and kept as its row
        tuple.
        """
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        qualified = [c.renamed_table(name) for c in columns]
        schema = Schema(qualified)
        if primary_key is not None and not schema.has(primary_key):
            raise CatalogError(f"primary key {primary_key!r} not in schema")
        table = Table(
            name=name, relation=_encoded(schema, rows), primary_key=primary_key
        )
        self.tables[name] = table
        self.version += 1
        return table

    def attach_table(
        self,
        name: str,
        relation: "StoredRelation",
        primary_key: Optional[str] = None,
    ) -> Table:
        """Register a table built as columns (a store's mapped table, a
        generated one).

        Unlike :meth:`create_table` this takes the relation as-is: its
        schema must already be qualified under *name*, and no row
        passes through the row constructor.
        """
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        for c in relation.schema.columns:
            if c.table != name:
                raise CatalogError(
                    f"attached relation column {c.qualified!r} is not "
                    f"qualified under table {name!r}"
                )
        if primary_key is not None and not relation.schema.has(primary_key):
            raise CatalogError(f"primary key {primary_key!r} not in schema")
        table = Table(name=name, relation=relation, primary_key=primary_key)
        self.tables[name] = table
        self.version += 1
        return table

    def drop_table(self, name: str) -> None:
        if name not in self.tables:
            raise CatalogError(f"unknown table {name!r}")
        del self.tables[name]
        self.version += 1

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def relation(self, name: str) -> Relation:
        return self.table(name).relation

    def mutate_table(
        self,
        name: str,
        rows: Optional[Iterable[Row]] = None,
        mutator=None,
    ) -> Table:
        """Change a table's rows: the one write path for base-table rows.

        Pass either *rows* (the new contents) or a *mutator* callable
        that edits the :class:`Table` in place.  Either way the edit
        lands on a fresh in-RAM list: inside the mutator
        ``table.relation.rows`` is a list, everywhere else a tuple, so
        an edit that bypasses this method raises.  A stored table's
        store is write-once: its rows are copied out first.  The catalog
        then re-encodes the edited rows into the table's columns (as
        :meth:`create_table` does), rebuilds its indexes and bumps
        :attr:`version`, which flushes every session memo built against
        the old contents.
        """
        table = self.table(name)
        if rows is not None and mutator is not None:
            raise CatalogError("pass either rows or mutator, not both")
        if mutator is not None:
            table.relation = Relation(table.schema, table.relation.rows)
            mutator(table)
            rows = table.relation.rows
        if rows is not None:
            table.relation = _encoded(table.schema, rows)
        table.hash_indexes = {
            key: HashIndex(table.relation, key) for key in table.hash_indexes
        }
        self.version += 1
        return table

    def create_hash_index(self, table_name: str, refs: Sequence[str]) -> HashIndex:
        """Build (or return an existing) equality index on *refs*."""
        table = self.table(table_name)
        key = tuple(refs)
        if key not in table.hash_indexes:
            table.hash_indexes[key] = HashIndex(table.relation, refs)
            self.version += 1
        return table.hash_indexes[key]

    def summary(self) -> str:
        """Human-readable inventory (used by examples)."""
        lines = []
        for name, table in sorted(self.tables.items()):
            cols = ", ".join(c.name for c in table.schema.columns)
            lines.append(
                f"{name}({cols}) rows={len(table.relation)}"
                + (f" pk={table.primary_key}" if table.primary_key else "")
            )
        return "\n".join(lines)


def _encoded(schema: Schema, rows: Iterable[Row]) -> "StoredRelation":
    """A base table built from Python rows: the rows encoded into its
    columns once, and kept as its row tuple."""
    from .colstore import StoredRelation
    from .vector.column import encode_rows

    rows = tuple(Relation(schema, rows).rows)
    return StoredRelation(
        schema, encode_rows(rows, len(schema)), len(rows), rows=rows
    )
