"""Scalar and predicate expressions with SQL three-valued logic.

Expressions form a small immutable AST with two evaluators:

* ``Expr.evaluate(ctx)`` walks the tree against an :class:`EvalContext`,
  a stack of ``(schema, row)`` frames: the innermost frame is the
  current row, outer frames carry correlation bindings (the
  tuple-iteration baseline pushes one frame per query block, exactly
  mirroring SQL's scoping rules).  This is the definitional evaluator —
  the oracle and the System A emulation run on it.
* ``Expr.bind(schema)`` compiles the same semantics against the one
  schema of a row operator's input into a closure over ``row``
  (:func:`bind_truth` / :func:`bind_value`): column positions, the
  comparison operator and the logic mode are resolved once per operator
  run instead of once per row.  The operators run on it, and the tests
  hold it to ``evaluate`` node by node.

Predicates evaluate to :class:`~repro.engine.types.TriBool`; value
expressions evaluate to SQL values.  A WHERE clause keeps a row only when
its predicate is *definitely* TRUE.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..errors import ExpressionError, SchemaError
from .logic import two_valued
from .schema import Schema
from .types import (
    FALSE,
    NULL,
    TRUE,
    UNKNOWN,
    _NUMERIC_TYPES,
    SqlValue,
    TriBool,
    is_null,
    negate_op,
    sql_compare,
    tri_any,
)

Row = Tuple[SqlValue, ...]

#: a bound expression: ``evaluate`` with everything but the row resolved
Bound = Callable[[Row], Union[SqlValue, TriBool]]


class EvalContext:
    """A stack of ``(schema, row)`` frames, innermost last.

    Column references resolve innermost-first, which implements SQL
    correlation: a subquery's predicate ``R.D = S.G`` finds ``S.G`` in its
    own frame and ``R.D`` in the enclosing block's frame.

    Built per outer tuple by the correlated evaluators (nested
    iteration, System A); no row operator builds one — their rows have
    one schema, which :func:`bind_truth` resolves ahead of the loop.
    """

    __slots__ = ("frames",)

    def __init__(self, frames: Optional[List[Tuple[Schema, Row]]] = None):
        self.frames: List[Tuple[Schema, Row]] = frames or []

    @staticmethod
    def single(schema: Schema, row: Row) -> "EvalContext":
        return EvalContext([(schema, row)])

    def push(self, schema: Schema, row: Row) -> "EvalContext":
        """A new context with one more (innermost) frame."""
        return EvalContext(self.frames + [(schema, row)])

    def lookup(self, ref: str) -> SqlValue:
        """Resolve *ref* innermost-first; raise if nowhere resolvable."""
        for schema, row in reversed(self.frames):
            try:
                return row[schema.index_of(ref)]
            except SchemaError:
                continue
        raise ExpressionError(f"unresolved column reference {ref!r}")

    def resolvable(self, ref: str) -> bool:
        for schema, _row in reversed(self.frames):
            if schema.has(ref):
                return True
        return False


class Expr:
    """Base class of all expressions."""

    def evaluate(self, ctx: EvalContext) -> Union[SqlValue, TriBool]:
        raise NotImplementedError

    def bind(self, schema: Schema) -> Bound:
        """``evaluate`` over single-frame contexts of *schema*, as a
        closure over the row (see :func:`bind_truth`)."""
        raise NotImplementedError

    def columns(self) -> List[str]:
        """All column references appearing in the expression."""
        out: List[str] = []
        self._collect(out)
        return out

    def _collect(self, out: List[str]) -> None:
        pass

    # -- small combinator API so plans read naturally ------------------- #

    def and_(self, other: "Expr") -> "Expr":
        return And(self, other)

    def negate(self) -> "Expr":
        return Not(self)


@dataclass(frozen=True)
class Literal(Expr):
    """A constant SQL value."""

    value: SqlValue

    def evaluate(self, ctx: EvalContext) -> SqlValue:
        return self.value

    def bind(self, schema: Schema) -> Bound:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass(frozen=True)
class Col(Expr):
    """A column reference, qualified (``"R.A"``) or bare (``"A"``)."""

    ref: str

    def evaluate(self, ctx: EvalContext) -> SqlValue:
        return ctx.lookup(self.ref)

    def bind(self, schema: Schema) -> Bound:
        try:
            return operator.itemgetter(schema.index_of(self.ref))
        except SchemaError:
            # like lookup(), fail per row: no rows, no error
            ref = self.ref

            def unresolved(row: Row) -> SqlValue:
                raise ExpressionError(f"unresolved column reference {ref!r}")

            return unresolved

    def _collect(self, out: List[str]) -> None:
        out.append(self.ref)

    def __repr__(self) -> str:
        return f"Col({self.ref})"


@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` with op in ``= <> < <= > >=`` (3VL result)."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> TriBool:
        return sql_compare(self.op, _value(self.left, ctx), _value(self.right, ctx))

    def bind(self, schema: Schema) -> Bound:
        compare = _comparer(self.op)
        left = bind_value(self.left, schema)
        right = bind_value(self.right, schema)
        return lambda row: compare(left(row), right(row))

    def _collect(self, out: List[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def negated(self) -> "Comparison":
        """The comparison with the logically negated operator."""
        return Comparison(negate_op(self.op), self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> TriBool:
        return _truth(self.left, ctx) & _truth(self.right, ctx)

    def bind(self, schema: Schema) -> Bound:
        # both sides, always: an error on the right of a FALSE left
        # must surface, as it does here and on the vector backend
        left = bind_truth(self.left, schema)
        right = bind_truth(self.right, schema)
        return lambda row: left(row) & right(row)

    def _collect(self, out: List[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def __repr__(self) -> str:
        return f"({self.left!r} AND {self.right!r})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> TriBool:
        return _truth(self.left, ctx) | _truth(self.right, ctx)

    def bind(self, schema: Schema) -> Bound:
        left = bind_truth(self.left, schema)
        right = bind_truth(self.right, schema)
        return lambda row: left(row) | right(row)

    def _collect(self, out: List[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)

    def __repr__(self) -> str:
        return f"({self.left!r} OR {self.right!r})"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def evaluate(self, ctx: EvalContext) -> TriBool:
        return ~_truth(self.operand, ctx)

    def bind(self, schema: Schema) -> Bound:
        operand = bind_truth(self.operand, schema)
        return lambda row: ~operand(row)

    def _collect(self, out: List[str]) -> None:
        self.operand._collect(out)

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


@dataclass(frozen=True)
class IsNull(Expr):
    """``expr IS [NOT] NULL`` — always two-valued."""

    operand: Expr
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> TriBool:
        null = is_null(_value(self.operand, ctx))
        return TriBool.from_bool(null != self.negated)

    def bind(self, schema: Schema) -> Bound:
        operand = bind_value(self.operand, schema)
        if_null, if_not = (FALSE, TRUE) if self.negated else (TRUE, FALSE)
        return lambda row: if_null if operand(row) is NULL else if_not

    def _collect(self, out: List[str]) -> None:
        self.operand._collect(out)

    def __repr__(self) -> str:
        op = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand!r} {op})"


@dataclass(frozen=True)
class Between(Expr):
    """``operand BETWEEN low AND high`` (inclusive, 3VL)."""

    operand: Expr
    low: Expr
    high: Expr

    def evaluate(self, ctx: EvalContext) -> TriBool:
        v = _value(self.operand, ctx)
        lo = _value(self.low, ctx)
        hi = _value(self.high, ctx)
        return sql_compare(">=", v, lo) & sql_compare("<=", v, hi)

    def bind(self, schema: Schema) -> Bound:
        operand = bind_value(self.operand, schema)
        low = bind_value(self.low, schema)
        high = bind_value(self.high, schema)
        ge, le = _comparer(">="), _comparer("<=")

        def between(row: Row) -> TriBool:
            v, lo, hi = operand(row), low(row), high(row)
            return ge(v, lo) & le(v, hi)

        return between

    def _collect(self, out: List[str]) -> None:
        self.operand._collect(out)
        self.low._collect(out)
        self.high._collect(out)


@dataclass(frozen=True)
class InList(Expr):
    """``operand [NOT] IN (v1, v2, ...)`` with literal values (3VL)."""

    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> TriBool:
        v = _value(self.operand, ctx)
        result = tri_any(
            sql_compare("=", v, _value(item, ctx)) for item in self.items
        )
        return ~result if self.negated else result

    def bind(self, schema: Schema) -> Bound:
        operand = bind_value(self.operand, schema)
        items = [bind_value(item, schema) for item in self.items]
        equal = _comparer("=")
        negated = self.negated

        def in_list(row: Row) -> TriBool:
            v = operand(row)
            # lazily, like evaluate(): nothing after a TRUE item runs
            result = tri_any(equal(v, item(row)) for item in items)
            return ~result if negated else result

        return in_list

    def _collect(self, out: List[str]) -> None:
        self.operand._collect(out)
        for item in self.items:
            item._collect(out)


_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True)
class Arith(Expr):
    """Binary arithmetic; NULL-propagating."""

    op: str
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> SqlValue:
        a = _value(self.left, ctx)
        b = _value(self.right, ctx)
        if is_null(a) or is_null(b):
            return NULL
        try:
            return _ARITH[self.op](a, b)
        except KeyError:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")
        except ZeroDivisionError:
            return NULL

    def bind(self, schema: Schema) -> Bound:
        left = bind_value(self.left, schema)
        right = bind_value(self.right, schema)
        op, apply = self.op, _ARITH.get(self.op)

        def arith(row: Row) -> SqlValue:
            a, b = left(row), right(row)
            if a is NULL or b is NULL:
                return NULL
            if apply is None:
                raise ExpressionError(f"unknown arithmetic operator {op!r}")
            try:
                return apply(a, b)
            except ZeroDivisionError:
                return NULL

        return arith

    def _collect(self, out: List[str]) -> None:
        self.left._collect(out)
        self.right._collect(out)


TRUE_EXPR: Expr = Literal(True)


def _value(expr: Expr, ctx: EvalContext) -> SqlValue:
    """Evaluate *expr* as a value; TriBool results map to booleans/NULL."""
    result = expr.evaluate(ctx)
    if isinstance(result, TriBool):
        if result is TRUE:
            return True
        if result is FALSE:
            return False
        return NULL
    return result


def _truth(expr: Expr, ctx: EvalContext) -> TriBool:
    """Evaluate *expr* as a predicate; values coerce via SQL truth rules."""
    result = expr.evaluate(ctx)
    if isinstance(result, TriBool):
        return result
    if is_null(result):
        return FALSE if two_valued() else UNKNOWN
    if isinstance(result, bool):
        return TriBool.from_bool(result)
    raise ExpressionError(f"expression {expr!r} is not a predicate: {result!r}")


def truth(expr: Expr, ctx: EvalContext) -> TriBool:
    """Public wrapper over :func:`_truth` for operators and strategies."""
    return _truth(expr, ctx)


#: the nodes whose ``evaluate`` / ``bind`` yield a TriBool, not a value
_PREDICATES = (Comparison, And, Or, Not, IsNull, Between, InList)

_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_TRI_VALUE = {TRUE: True, FALSE: False, UNKNOWN: NULL}


def _comparer(op: str) -> Callable[[SqlValue, SqlValue], TriBool]:
    """``sql_compare(op, ·, ·)`` with *op* and the logic mode resolved.

    The closure answers itself only where ``sql_compare`` has nothing to
    decide: a NULL operand, two values of one non-bool type, or two
    plain numbers.  Every other pairing (bool vs int, date vs str, an
    unknown *op*, ...) goes to ``sql_compare``, so what is comparable
    and what raises :class:`~repro.errors.TypeError_` is defined once.
    """
    apply = _COMPARE.get(op)
    if apply is None:
        return lambda a, b: sql_compare(op, a, b)
    on_null = FALSE if two_valued() else UNKNOWN

    def compare(a: SqlValue, b: SqlValue) -> TriBool:
        if a is NULL or b is NULL:
            return on_null
        kind, other = type(a), type(b)
        if (kind is other and kind is not bool) or (
            kind in _NUMERIC_TYPES and other in _NUMERIC_TYPES
        ):
            return TRUE if apply(a, b) else FALSE
        return sql_compare(op, a, b)

    return compare


def bind_value(expr: Expr, schema: Schema) -> Callable[[Row], SqlValue]:
    """Compile *expr* over rows of *schema* as a value (cf. ``_value``)."""
    bound = expr.bind(schema)
    if not isinstance(expr, _PREDICATES):
        return bound
    return lambda row: _TRI_VALUE[bound(row)]


def bind_truth(expr: Expr, schema: Schema) -> Callable[[Row], TriBool]:
    """Compile *expr* over rows of *schema* as a predicate (cf. ``truth``).

    ``bind_truth(e, s)(row)`` is ``truth(e, EvalContext.single(s, row))``
    under the logic mode in force *now*: bind inside the execution's
    scope, at the top of the loop that calls the closure, and do not
    keep it.  A column that does not resolve in *schema* raises when the
    closure is called, not here.
    """
    bound = expr.bind(schema)
    if isinstance(expr, _PREDICATES):
        return bound
    on_null = FALSE if two_valued() else UNKNOWN

    def as_truth(row: Row) -> TriBool:
        result = bound(row)
        if result is NULL:
            return on_null
        if isinstance(result, bool):
            return TRUE if result else FALSE
        raise ExpressionError(
            f"expression {expr!r} is not a predicate: {result!r}"
        )

    return as_truth


def conjoin(predicates: Sequence[Expr]) -> Expr:
    """AND together a sequence of predicates (empty -> TRUE literal)."""
    preds = [p for p in predicates if p is not None]
    if not preds:
        return TRUE_EXPR
    result = preds[0]
    for p in preds[1:]:
        result = And(result, p)
    return result


def split_conjuncts(expr: Expr) -> List[Expr]:
    """Flatten a tree of ANDs into a list of conjuncts."""
    if isinstance(expr, And):
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    if expr is TRUE_EXPR:
        return []
    return [expr]


def eq(left: str, right: str) -> Comparison:
    """Shorthand equality predicate between two column refs."""
    return Comparison("=", Col(left), Col(right))


def cmp(left: str, op: str, value: SqlValue) -> Comparison:
    """Shorthand comparison between a column ref and a literal."""
    return Comparison(op, Col(left), Literal(value))
