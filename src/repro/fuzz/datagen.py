"""Random schema/data generation for the differential fuzzer.

A fuzzed database is a handful of structurally identical tables
``t0 .. tN``, each ``(k, a, b)`` with ``k`` an INTEGER NOT NULL primary
key and ``a`` / ``b`` integers drawn from a deliberately tiny domain so
that equality joins, quantified comparisons and duplicates all actually
fire.  A value column whose rows hold no NULL is declared NOT NULL, so
the rewrites that need a NOT NULL column (``aggregate-rewrite``,
``classical-unnesting``) get cases to accept.  The generator biases
toward the regimes the paper's correctness argument hinges on:

* **empty tables** — subqueries over them produce ``{B} = ∅``, the case
  the pk-is-NULL convention exists to recognise;
* **NULL-only value columns** — a non-empty set containing *only* NULL,
  which classical antijoin rewrites confuse with the empty set;
* **NULL correlation keys** — correlated predicates whose outer or inner
  side is NULL, so the correlation comparison itself is UNKNOWN.

Databases are described by an immutable :class:`DatabaseSpec` (plain
data, no engine objects) so that the shrinker can derive smaller
candidate databases and the corpus writer can serialize failing cases as
self-contained Python source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from ..engine.catalog import Database
from ..engine.schema import Column
from ..engine.types import NULL, SqlValue, is_null

#: Every fuzz table has this layout: pk + two value columns.
PK_COLUMN = "k"
VALUE_COLUMNS = ("a", "b")
ALL_COLUMNS = (PK_COLUMN,) + VALUE_COLUMNS

#: Probability that a table is generated empty / with NULL-only values.
EMPTY_TABLE_RATE = 0.08
NULL_ONLY_TABLE_RATE = 0.08


@dataclass(frozen=True)
class TableSpec:
    """One fuzz table: a name plus its ``(k, a, b)`` rows."""

    name: str
    rows: Tuple[Tuple[SqlValue, ...], ...]

    def columns(self) -> List[Column]:
        """The pk, then each value column, declared NOT NULL exactly
        when no row holds a NULL there."""
        return [Column(PK_COLUMN, not_null=True)] + [
            Column(name, not_null=not any(is_null(row[i]) for row in self.rows))
            for i, name in enumerate(VALUE_COLUMNS, start=1)
        ]

    def create_in(self, db: Database) -> None:
        db.create_table(
            self.name, self.columns(), self.rows, primary_key=PK_COLUMN
        )


@dataclass(frozen=True)
class DatabaseSpec:
    """An immutable description of a whole fuzz database."""

    tables: Tuple[TableSpec, ...]

    def build(self) -> Database:
        """Materialize the spec as a fresh engine :class:`Database`."""
        db = Database()
        for table in self.tables:
            table.create_in(db)
        return db

    def with_rows(self, name: str, rows: Sequence[Tuple[SqlValue, ...]]) -> "DatabaseSpec":
        """A copy with one table's rows replaced (used by the shrinker)."""
        return DatabaseSpec(
            tuple(
                replace(t, rows=tuple(rows)) if t.name == name else t
                for t in self.tables
            )
        )

    @property
    def total_rows(self) -> int:
        return sum(len(t.rows) for t in self.tables)

    def describe(self) -> str:
        cells = []
        for t in self.tables:
            nulls = sum(1 for row in t.rows for v in row if is_null(v))
            cells.append(f"{t.name}[{len(t.rows)} rows, {nulls} nulls]")
        return " ".join(cells)


def random_database_spec(
    rng: random.Random,
    n_tables: int = 4,
    max_rows: int = 8,
    null_rate: float = 0.25,
    domain: Tuple[int, int] = (-3, 3),
) -> DatabaseSpec:
    """Generate a random :class:`DatabaseSpec`.

    *null_rate* is the per-cell probability of NULL in the value columns;
    primary keys are always sequential non-NULL integers.
    """
    tables: List[TableSpec] = []
    for i in range(n_tables):
        shape = rng.random()
        if shape < EMPTY_TABLE_RATE:
            rows: Tuple[Tuple[SqlValue, ...], ...] = ()
        else:
            null_only = shape < EMPTY_TABLE_RATE + NULL_ONLY_TABLE_RATE

            def cell() -> SqlValue:
                if null_only or rng.random() < null_rate:
                    return NULL
                return rng.randint(domain[0], domain[1])

            rows = tuple(
                (k, cell(), cell()) for k in range(rng.randint(1, max_rows))
            )
        tables.append(TableSpec(name=f"t{i}", rows=rows))
    return DatabaseSpec(tuple(tables))
