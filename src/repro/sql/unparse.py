"""AST -> SQL text rendering, for our own parser and for real engines.

One renderer walks every :mod:`repro.sql.ast` case with one
parenthesization; a :class:`Dialect` names the target.  Three dialects
exist: :data:`REPRO` here (the parser's inverse — the fuzzer renders
failing cases with it so they can be reported, minimized and checked
into ``tests/fuzz_corpus/`` as plain SQL, and its output re-parses to
an equal AST, see ``tests/sql/test_unparse.py``), and ``SQLITE`` /
``DUCKDB`` in :mod:`repro.oracle.dialect`.  They differ in six places,
one :class:`Dialect` field each:

* **identifiers** — real engines get every name double-quoted
  (embedded quotes doubled), so names that collide with the target's
  keyword set cannot change the parse; our grammar has no quoting, so
  :data:`REPRO` emits names bare and rejects one the lexer would read
  back as a keyword, number or operator soup;
* **booleans** — ``true`` / ``false`` for our parser, ``1`` / ``0`` for
  engines (SQLite has no boolean storage class);
* **dates** — engines read ``datetime.date`` constants as ISO strings;
  our grammar has no date literal, so :data:`REPRO` rejects them;
* **division** — our engine (and DuckDB) use true division for ``/``;
  SQLite truncates integer/integer, so its dialect multiplies the left
  operand by ``1.0`` first.  All agree that division by zero is NULL;
* **quantified predicates** — our parser reads ``θ SOME|ALL``
  natively; SQLite has none and other engines disagree on the corners,
  so for engines both quantifiers are rewritten into a three-valued
  ``CASE``-over-``EXISTS`` form that reproduces SQL semantics exactly
  (TRUE / FALSE / UNKNOWN as ``true`` / ``false`` / ``NULL``, which
  compose correctly under the engine's own Kleene AND/OR/NOT):

  - ``x θ SOME (SELECT e FROM ... WHERE w)`` becomes TRUE when a
    *w*-row with a TRUE comparison exists, else UNKNOWN when one with an
    UNKNOWN comparison exists, else FALSE (vacuously FALSE on empty);
  - ``x θ ALL`` symmetrically: FALSE dominates, then UNKNOWN, else TRUE
    (vacuously TRUE on empty);

* **errors** — what a dialect cannot express raises its error class:
  :class:`~repro.errors.ReproError` for our parser (generator drift is
  caught at once instead of emitting unparseable corpus files),
  :class:`~repro.errors.OracleUnsupportedError` for engines.

``IN (subquery)``, ``NOT IN``, ``EXISTS``, ``BETWEEN``, ``IS NULL`` and
the Kleene connectives follow the SQL standard in every target, so they
render the same everywhere.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass
from typing import Tuple, Type

from ..engine.types import is_null
from ..errors import ReproError
from . import ast as A
from .lexer import KEYWORDS

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_EXPONENT = re.compile(r"[eE]")


@dataclass(frozen=True)
class Dialect:
    """The six spellings a target engine decides (module docstring).

    Only the three module-level dialects — :data:`REPRO`, and ``SQLITE``
    / ``DUCKDB`` in :mod:`repro.oracle.dialect` — set these fields.
    """

    name: str
    #: double-quote every identifier; else emit it bare, validated
    quote_identifiers: bool
    #: the spellings of the TRUE and FALSE constants
    booleans: Tuple[str, str]
    #: ``datetime.date`` constants render as ISO strings; else an error
    dates: bool
    #: ``/`` truncates on integer operands and needs the ``* 1.0``
    #: promotion to match our true-division semantics
    integer_division: bool
    #: ``θ SOME|ALL`` renders as written; else as the CASE/EXISTS rewrite
    native_quantifiers: bool
    #: raised for a construct the dialect cannot express
    error: Type[ReproError]

    def ident(self, name: str) -> str:
        """*name* as an identifier of this dialect."""
        if self.quote_identifiers:
            return '"' + name.replace('"', '""') + '"'
        if not _IDENT.match(name) or name.lower() in KEYWORDS:
            raise self.error(
                f"identifier {name!r} cannot be rendered: it is a reserved "
                "word or not of the form [A-Za-z_][A-Za-z0-9_]*"
            )
        return name


#: our own parser: the dialect of ``render_sql`` and the fuzz corpus
REPRO = Dialect(
    name="repro",
    quote_identifiers=False,
    booleans=("true", "false"),
    dates=False,
    integer_division=False,
    native_quantifiers=True,
    error=ReproError,
)


def render_sql(stmt: A.SelectStmt) -> str:
    """Render a :class:`~repro.sql.ast.SelectStmt` as parseable SQL text."""
    return render_for(stmt, REPRO)


def render_for(stmt: A.SelectStmt, dialect: Dialect) -> str:
    """Render *stmt* as SQL text in *dialect*."""
    return _Renderer(dialect).select(stmt)


def render_float_literal(value: float) -> str:
    """A float literal that parses everywhere, preferring plain decimal.

    ``repr`` switches to exponent notation (``1e-05``) below 1e-4 and
    above 1e16; small-magnitude exponent forms are expanded into
    positional decimal when the expansion round-trips exactly, so the
    literal also survives parsers without exponent support.  Infinities
    and NaNs have no SQL literal at all and are rejected.
    """
    if math.isinf(value) or math.isnan(value):
        raise ReproError(f"{value!r} has no SQL literal")
    text = repr(value)
    if not _EXPONENT.search(text):
        return text
    expanded = format(value, ".17f").rstrip("0")
    if expanded.endswith("."):
        expanded += "0"
    if float(expanded) == value:
        return expanded
    # huge/tiny magnitudes where positional form loses precision: keep
    # exponent notation (the lexer understands it)
    return text


class _Renderer:
    def __init__(self, dialect: Dialect):
        self.d = dialect

    def select(self, stmt: A.SelectStmt) -> str:
        parts = ["select"]
        if stmt.distinct:
            parts.append("distinct")
        parts.append(", ".join(self._item(item) for item in stmt.items))
        parts.append("from")
        parts.append(", ".join(self._table(t) for t in stmt.tables))
        if stmt.where is not None:
            parts.append("where")
            parts.append(self.predicate(stmt.where))
        if stmt.group_by:
            parts.append("group by")
            parts.append(", ".join(self._colref(r) for r in stmt.group_by))
        if stmt.having is not None:
            parts.append("having")
            parts.append(self.predicate(stmt.having))
        if stmt.order_by:
            parts.append("order by")
            parts.append(
                ", ".join(
                    self._colref(item.expr) + (" desc" if item.descending else "")
                    for item in stmt.order_by
                )
            )
        if stmt.limit is not None:
            parts.append(f"limit {stmt.limit}")
        return " ".join(parts)

    def _item(self, item: A.SelectItem) -> str:
        if item.star:
            return "*"
        assert item.expr is not None
        if isinstance(item.expr, A.AggregateCall):
            return self._agg_call(item.expr)
        return self._colref(item.expr)

    def _agg_call(self, call: A.AggregateCall) -> str:
        if call.star:
            return f"{call.func}(*)"
        assert call.arg is not None
        return f"{call.func}({self._colref(call.arg)})"

    def _table(self, tref: A.TableRef) -> str:
        name = self.d.ident(tref.name)
        if tref.alias:
            return f"{name} {self.d.ident(tref.alias)}"
        return name

    def _colref(self, ref: A.ColumnRef) -> str:
        column = self.d.ident(ref.column)
        if ref.table:
            return f"{self.d.ident(ref.table)}.{column}"
        return column

    def value(self, expr: A.ValueExpr) -> str:
        if isinstance(expr, A.ColumnRef):
            return self._colref(expr)
        if isinstance(expr, A.Constant):
            return self.constant(expr.value)
        if isinstance(expr, A.BinaryArith):
            left = self.value(expr.left)
            right = self.value(expr.right)
            if expr.op == "/" and self.d.integer_division:
                # promote to REAL so int/int matches our true division
                return f"(({left}) * 1.0 / ({right}))"
            # parenthesize both sides: correct for every precedence mix,
            # and the parser discards parens so round-tripping stays exact
            return f"({left} {expr.op} {right})"
        if isinstance(expr, A.AggregateCall):
            return self._agg_call(expr)
        if isinstance(expr, A.ScalarSubquery):
            # real engines evaluate scalar subqueries natively (empty
            # result -> NULL), matching our aggregate-link semantics
            return f"({self.select(expr.subquery)})"
        raise self.d.error(
            f"cannot render value expression {expr!r} for {self.d.name}"
        )

    def constant(self, value: object) -> str:
        if is_null(value):
            return "null"
        if value is True:
            return self.d.booleans[0]
        if value is False:
            return self.d.booleans[1]
        if isinstance(value, float):
            try:
                return render_float_literal(value)
            except ReproError as exc:
                raise self.d.error(str(exc)) from None
        if isinstance(value, int):
            return repr(value)
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        if isinstance(value, datetime.date) and self.d.dates:
            return f"'{value.isoformat()}'"
        raise self.d.error(f"cannot render constant {value!r} for {self.d.name}")

    def predicate(self, pred: A.Predicate, parent: str = "or") -> str:
        """Render a predicate; *parent* is the tightest enclosing
        connective ("or" < "and" < "not") and decides whether
        parentheses are needed."""
        if isinstance(pred, A.OrPred):
            text = (
                f"{self.predicate(pred.left, 'or')} or "
                f"{self.predicate(pred.right, 'or')}"
            )
            return f"({text})" if parent in ("and", "not") else text
        if isinstance(pred, A.AndPred):
            text = (
                f"{self.predicate(pred.left, 'and')} and "
                f"{self.predicate(pred.right, 'and')}"
            )
            return f"({text})" if parent == "not" else text
        if isinstance(pred, A.NotPred):
            return f"not {self.predicate(pred.operand, 'not')}"
        if isinstance(pred, A.ComparisonPred):
            return f"{self.value(pred.left)} {pred.op} {self.value(pred.right)}"
        if isinstance(pred, A.BetweenPred):
            return (
                f"{self.value(pred.operand)} between "
                f"{self.value(pred.low)} and {self.value(pred.high)}"
            )
        if isinstance(pred, A.IsNullPred):
            negation = "is not null" if pred.negated else "is null"
            return f"{self.value(pred.operand)} {negation}"
        if isinstance(pred, A.InListPred):
            items = ", ".join(self.value(v) for v in pred.items)
            keyword = "not in" if pred.negated else "in"
            return f"{self.value(pred.operand)} {keyword} ({items})"
        if isinstance(pred, A.ExistsPred):
            keyword = "not exists" if pred.negated else "exists"
            return f"{keyword} ({self.select(pred.subquery)})"
        if isinstance(pred, A.InSubqueryPred):
            keyword = "not in" if pred.negated else "in"
            return f"{self.value(pred.operand)} {keyword} ({self.select(pred.subquery)})"
        if isinstance(pred, A.QuantifiedPred):
            if self.d.native_quantifiers:
                return (
                    f"{self.value(pred.operand)} {pred.op} {pred.quantifier} "
                    f"({self.select(pred.subquery)})"
                )
            return self._quantified(pred)
        raise self.d.error(f"cannot render predicate {pred!r} for {self.d.name}")

    def _quantified(self, pred: A.QuantifiedPred) -> str:
        """The 3VL-preserving CASE/EXISTS rewrite of ``x θ SOME|ALL``."""
        sub = pred.subquery
        if len(sub.items) != 1 or sub.items[0].star or sub.items[0].expr is None:
            raise self.d.error("quantified subquery must have exactly one select item")
        if sub.order_by or sub.limit is not None:
            raise self.d.error(
                "ORDER BY/LIMIT inside a quantified subquery cannot be "
                "preserved through the EXISTS rewrite"
            )
        operand = self.value(pred.operand)
        item = sub.items[0].expr
        if sub.group_by or sub.having is not None:
            # grouped subquery: probe the aggregated result as a derived
            # table (inlining WHERE would bypass the HAVING filter)
            if isinstance(item, A.AggregateCall):
                raise self.d.error(
                    "quantified grouped subquery must select a group key"
                )
            inner = self.select(sub)
            alias = self.d.ident("_q")
            compare = f"({operand} {pred.op} {alias}.{self.d.ident(item.column)})"

            def probe(condition: str) -> str:
                return f"exists (select 1 from ({inner}) {alias} where {condition})"

        else:
            tables = ", ".join(self._table(t) for t in sub.tables)
            local = (
                f"({self.predicate(sub.where, 'and')}) and "
                if sub.where is not None
                else ""
            )
            compare = f"({operand} {pred.op} {self._colref(item)})"

            def probe(condition: str) -> str:
                return f"exists (select 1 from {tables} where {local}{condition})"

        # TRUE/FALSE keywords keep the CASE boolean-typed for strict
        # engines (DuckDB); SQLite reads them as 1/0.
        if pred.quantifier == "some":
            return (
                f"(case when {probe(compare)} then true "
                f"when {probe(compare + ' is null')} then null "
                f"else false end)"
            )
        if pred.quantifier == "all":
            return (
                f"(case when {probe('not ' + compare)} then false "
                f"when {probe(compare + ' is null')} then null "
                f"else true end)"
            )
        raise self.d.error(f"unknown quantifier {pred.quantifier!r}")
