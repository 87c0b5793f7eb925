"""The nested relational model (paper Definitions 1 and 2).

A nested schema is a tree: atomic attributes plus named subschemas; its
*depth* is 0 for flat schemas and ``1 + max(depth(sub))`` otherwise.  A
nested relation holds rows whose atomic positions carry SQL values and
whose subschema positions carry *sets of nested tuples* over the
subschema (represented as Python tuples of row tuples, in insertion
order; set semantics are enforced at construction by the nest operator).

The approach of the paper needs only shallow nesting produced by
:func:`repro.core.nest.nest`, but the model here is fully recursive so
the algebra can express the multi-level relations of Section 4.2.1
(consecutive nests) and so property-based tests can exercise depth > 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import SchemaError
from ..engine.relation import Bag, aligned_table, format_value
from ..engine.schema import Column, Schema
from ..engine.types import SqlValue

#: A nested tuple: atomic values and/or tuples-of-nested-tuples.
NestedRow = Tuple[object, ...]


@dataclass(frozen=True)
class SubSchema:
    """A named subschema inside a nested schema (paper Definition 1.2)."""

    name: str
    schema: "NestedSchema"

    def __repr__(self) -> str:
        return f"SubSchema({self.name}: {self.schema!r})"


class NestedSchema:
    """An ordered mix of atomic :class:`Column` and :class:`SubSchema`.

    Atomic attributes come first in iteration order they were given;
    components may interleave, matching Definition 1's
    ``R = (A_1, ..., A_n, R_1, ..., R_m)`` without forcing a layout.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[Union[Column, SubSchema]]):
        self.components: Tuple[Union[Column, SubSchema], ...] = tuple(components)
        names = [self._name(c) for c in self.components]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate component names in nested schema: {names}")

    @staticmethod
    def _name(component: Union[Column, SubSchema]) -> str:
        return component.qualified if isinstance(component, Column) else component.name

    @staticmethod
    def flat(schema: Schema) -> "NestedSchema":
        """Lift a flat schema (depth 0)."""
        return NestedSchema(schema.columns)

    # ------------------------------------------------------------------ #

    @property
    def atomic_columns(self) -> List[Column]:
        return [c for c in self.components if isinstance(c, Column)]

    @property
    def subschemas(self) -> List[SubSchema]:
        return [c for c in self.components if isinstance(c, SubSchema)]

    @property
    def depth(self) -> int:
        """Paper Definition 1: 0 if flat, else 1 + max subschema depth."""
        subs = self.subschemas
        if not subs:
            return 0
        return 1 + max(s.schema.depth for s in subs)

    def __len__(self) -> int:
        return len(self.components)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NestedSchema) and self.components == other.components

    def __repr__(self) -> str:
        parts = []
        for c in self.components:
            if isinstance(c, Column):
                parts.append(c.qualified)
            else:
                parts.append(f"{c.name}<{c.schema!r}>")
        return f"NestedSchema({', '.join(parts)})"

    def index_of(self, name: str) -> int:
        """Position of a component by (qualified) name."""
        for i, c in enumerate(self.components):
            if self._name(c) == name:
                return i
        # fall back to bare-name resolution among atomic columns
        hits = [
            i
            for i, c in enumerate(self.components)
            if isinstance(c, Column) and c.name == name
        ]
        if len(hits) == 1:
            return hits[0]
        raise SchemaError(f"unknown or ambiguous component {name!r} in {self!r}")

    def component(self, name: str) -> Union[Column, SubSchema]:
        return self.components[self.index_of(name)]

    def subschema(self, name: str) -> SubSchema:
        comp = self.component(name)
        if not isinstance(comp, SubSchema):
            raise SchemaError(f"component {name!r} is atomic, not a subschema")
        return comp

    def atomic_schema(self) -> Schema:
        """Flat schema over the atomic components only."""
        return Schema(self.atomic_columns)

    def to_flat(self) -> Schema:
        """Interpret a depth-0 nested schema as a flat schema."""
        if self.depth != 0:
            raise SchemaError(f"{self!r} has depth {self.depth}, not flat")
        return Schema(self.atomic_columns)


class NestedRelation(Bag):
    """A finite set of nested tuples over a :class:`NestedSchema`."""

    __slots__ = ()

    def __init__(self, schema: NestedSchema, rows: Iterable[NestedRow] = ()):
        self.schema = schema
        self.rows: List[NestedRow] = [tuple(r) for r in rows]
        width = len(schema)
        for r in self.rows:
            if len(r) != width:
                raise SchemaError(
                    f"nested row arity {len(r)} != schema width {width}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[NestedRow]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"NestedRelation({self.schema!r}, {len(self.rows)} rows)"

    @property
    def depth(self) -> int:
        return self.schema.depth

    def group(self, row: NestedRow, sub_name: str) -> Tuple[tuple, ...]:
        """The set of sub-tuples stored in *row* under subschema *sub_name*."""
        return row[self.schema.index_of(sub_name)]

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Aligned text rendering; set attributes display as {…}."""
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        cells = []
        for row in shown:
            rendered = []
            for value, comp in zip(row, self.schema.components):
                if isinstance(comp, SubSchema):
                    inner = ", ".join(
                        "(" + ", ".join(format_value(v) for v in sub) + ")"
                        for sub in value
                    )
                    rendered.append("{" + inner + "}")
                else:
                    rendered.append(format_value(value))
            cells.append(rendered)
        return aligned_table(
            [NestedSchema._name(c) for c in self.schema.components],
            cells,
            hidden=len(self.rows) - len(shown),
        )
