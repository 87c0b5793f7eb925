"""Flat relational schemas.

A :class:`Schema` is an ordered list of :class:`Column` objects.  Columns
carry an optional table qualifier so that schemas produced by joins can
disambiguate ``R.A`` from ``S.A``.  Attribute resolution accepts either a
qualified name (``"R.A"``) or a bare name (``"A"``) when unambiguous —
the same rule SQL uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError


@dataclass(frozen=True)
class Column:
    """A named, optionally table-qualified attribute.

    ``not_null`` records a NOT NULL constraint; the baseline strategies use
    it to decide whether an antijoin rewrite of ``ALL`` / ``NOT IN`` is
    sound (the paper shows "System A" switching plans on exactly this bit).
    """

    name: str
    table: Optional[str] = None
    not_null: bool = False
    #: fully qualified name, e.g. ``"orders.o_orderkey"`` (derived once,
    #: outside equality, hashing and ``repr``)
    qualified: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "qualified",
            f"{self.table}.{self.name}" if self.table else self.name,
        )

    def renamed_table(self, table: Optional[str]) -> "Column":
        """A copy of this column under a different table qualifier."""
        return replace(self, table=table)

    def __repr__(self) -> str:
        return f"Column({self.qualified!r})"


def parse_ref(ref: str) -> Tuple[Optional[str], str]:
    """Split an attribute reference into ``(table_or_None, column)``."""
    if "." in ref:
        table, _, name = ref.rpartition(".")
        return table or None, name
    return None, ref


class Schema:
    """An ordered collection of columns with name-based resolution.

    Schemas are immutable; operations like :meth:`concat` and
    :meth:`project` return new schemas.
    """

    __slots__ = ("columns", "names", "_by_qualified", "_by_name")

    def __init__(self, columns: Iterable[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        by_qualified: Dict[str, int] = {}
        by_name: Dict[str, List[int]] = {}
        for i, col in enumerate(self.columns):
            qualified = col.qualified
            if qualified in by_qualified:
                raise SchemaError(f"duplicate column {qualified!r} in schema")
            by_qualified[qualified] = i
            by_name.setdefault(col.name, []).append(i)
        self._by_qualified = by_qualified
        self._by_name = by_name
        #: qualified names of all columns, in order
        self.names: Tuple[str, ...] = tuple(by_qualified)

    @staticmethod
    def of(*names: str, table: Optional[str] = None) -> "Schema":
        """Convenience constructor from bare column names."""
        return Schema(Column(n, table=table) for n in names)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return f"Schema({', '.join(c.qualified for c in self.columns)})"

    def index_of(self, ref: str) -> int:
        """Resolve *ref* (qualified or bare) to a column position.

        Raises :class:`SchemaError` if the reference is unknown or, for a
        bare name, ambiguous.
        """
        if ref in self._by_qualified:
            return self._by_qualified[ref]
        table, name = parse_ref(ref)
        if table is None:
            hits = self._by_name.get(name, [])
            if len(hits) == 1:
                return hits[0]
            if not hits:
                raise SchemaError(f"unknown column {ref!r} in {self!r}")
            raise SchemaError(f"ambiguous column {ref!r} in {self!r}")
        raise SchemaError(f"unknown column {ref!r} in {self!r}")

    def has(self, ref: str) -> bool:
        """Whether *ref* resolves (unambiguously) in this schema:
        :meth:`index_of`'s rules, answered without raising (a miss
        builds no error message)."""
        if ref in self._by_qualified:
            return True
        table, name = parse_ref(ref)
        return table is None and len(self._by_name.get(name, ())) == 1

    def column(self, ref: str) -> Column:
        """Resolve *ref* to its :class:`Column`."""
        return self.columns[self.index_of(ref)]

    def indices_of(self, refs: Sequence[str]) -> Tuple[int, ...]:
        """Resolve a sequence of references to positions, preserving order."""
        return tuple(self.index_of(r) for r in refs)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation (e.g. a join) of two row layouts."""
        return Schema(self.columns + other.columns)

    def project(self, refs: Sequence[str]) -> "Schema":
        """Schema restricted (and reordered) to *refs*."""
        return Schema(self.columns[self.index_of(r)] for r in refs)

    def rename_table(self, table: str) -> "Schema":
        """All columns re-qualified under *table* (SQL alias semantics)."""
        return Schema(c.renamed_table(table) for c in self.columns)
