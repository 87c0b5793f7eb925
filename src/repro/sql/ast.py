"""Abstract syntax tree for the SQL subset.

The parser produces this surface AST; the analyzer lowers it onto the
normalized :class:`~repro.core.blocks.NestedQuery` block model all the
strategies consume.  Predicate nodes reuse the engine's expression kinds
where possible; subquery-bearing predicates get dedicated node types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


@dataclass(frozen=True)
class ColumnRef:
    """``table.column`` or a bare ``column``."""

    table: Optional[str]
    column: str

    @property
    def text(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Constant:
    """A literal value: number, string or NULL/TRUE/FALSE."""

    value: object


@dataclass(frozen=True)
class BinaryArith:
    op: str
    left: "ValueExpr"
    right: "ValueExpr"


#: Aggregate functions the grammar accepts (``count`` also as ``count(*)``).
AGGREGATE_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateCall:
    """``func(column)`` or ``count(*)``.

    Aggregate names are *not* reserved words: the lexer still reads
    ``count`` as an identifier, and the parser only builds this node when
    the identifier names an aggregate and is immediately followed by
    ``(``.  Valid positions (select list, HAVING, single-item scalar
    subqueries) are enforced by the analyzer, not the grammar.
    """

    func: str  # one of AGGREGATE_FUNCS
    arg: Optional[ColumnRef]  # None only for count(*)
    star: bool = False

    @property
    def text(self) -> str:
        inner = "*" if self.star else self.arg.text
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class ScalarSubquery:
    """``(SELECT agg(...) FROM ...)`` used in value position.

    Our subset requires the subquery to produce exactly one row — which
    it guarantees syntactically by allowing only a single ungrouped
    aggregate select item (checked by the analyzer).
    """

    subquery: "SelectStmt"


ValueExpr = Union[ColumnRef, Constant, BinaryArith, AggregateCall, ScalarSubquery]


@dataclass(frozen=True)
class ComparisonPred:
    op: str
    left: ValueExpr
    right: ValueExpr


@dataclass(frozen=True)
class BetweenPred:
    operand: ValueExpr
    low: ValueExpr
    high: ValueExpr


@dataclass(frozen=True)
class IsNullPred:
    operand: ValueExpr
    negated: bool


@dataclass(frozen=True)
class InListPred:
    operand: ValueExpr
    items: Tuple[ValueExpr, ...]
    negated: bool


@dataclass(frozen=True)
class AndPred:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class OrPred:
    left: "Predicate"
    right: "Predicate"


@dataclass(frozen=True)
class NotPred:
    operand: "Predicate"


@dataclass(frozen=True)
class ExistsPred:
    """``[NOT] EXISTS (subquery)``."""

    subquery: "SelectStmt"
    negated: bool


@dataclass(frozen=True)
class InSubqueryPred:
    """``expr [NOT] IN (subquery)``."""

    operand: ValueExpr
    subquery: "SelectStmt"
    negated: bool


@dataclass(frozen=True)
class QuantifiedPred:
    """``expr θ SOME|ANY|ALL (subquery)``."""

    operand: ValueExpr
    op: str
    quantifier: str  # "some" | "all"
    subquery: "SelectStmt"


Predicate = Union[
    ComparisonPred,
    BetweenPred,
    IsNullPred,
    InListPred,
    AndPred,
    OrPred,
    NotPred,
    ExistsPred,
    InSubqueryPred,
    QuantifiedPred,
]


@dataclass(frozen=True)
class TableRef:
    """``name [AS] alias``."""

    name: str
    alias: Optional[str] = None

    @property
    def effective_alias(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry; ``star`` for ``SELECT *``.

    *expr* is a plain column reference or an :class:`AggregateCall`
    (grouped / global-aggregate queries).
    """

    expr: Optional[Union[ColumnRef, AggregateCall]]
    star: bool = False


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY entry: a column plus direction."""

    expr: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class SelectStmt:
    """A (possibly nested) SELECT statement."""

    items: Tuple[SelectItem, ...]
    tables: Tuple[TableRef, ...]
    where: Optional[Predicate]
    distinct: bool = False
    group_by: Tuple[ColumnRef, ...] = ()
    having: Optional[Predicate] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
