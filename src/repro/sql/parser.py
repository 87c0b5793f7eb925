"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    select    := SELECT [DISTINCT] items FROM tables [WHERE pred]
                 [GROUP BY columns [HAVING pred]]
    items     := '*' | item (',' item)*
    item      := qualified_column | aggregate
    aggregate := func '(' ('*' | qualified_column) ')'
    tables    := table (',' table)*
    table     := ident [[AS] ident]
    pred      := or_pred
    or_pred   := and_pred (OR and_pred)*
    and_pred  := not_pred (AND not_pred)*
    not_pred  := NOT not_pred | primary
    primary   := '(' pred ')'
               | [NOT] EXISTS '(' select ')'
               | value IS [NOT] NULL
               | value BETWEEN value AND value
               | value [NOT] IN '(' (select | value_list) ')'
               | value cmp (SOME|ANY|ALL) '(' select ')'
               | value cmp value
    value     := term (('+'|'-') term)*
    term      := factor (('*'|'/') factor)*
    factor    := number | string | NULL | TRUE | FALSE
               | qualified_column | aggregate | '(' select ')'
               | '(' value ')' | '-' factor

Aggregate function names (``count``/``sum``/``avg``/``min``/``max``)
stay ordinary identifiers; the aggregate production only fires when one
is immediately followed by ``(``.  A parenthesized SELECT in value
position becomes a :class:`~repro.sql.ast.ScalarSubquery`.

Errors carry the offending token's line/position.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ParseError
from .ast import (
    AGGREGATE_FUNCS,
    AggregateCall,
    AndPred,
    BetweenPred,
    BinaryArith,
    ColumnRef,
    ComparisonPred,
    Constant,
    ExistsPred,
    InListPred,
    InSubqueryPred,
    IsNullPred,
    NotPred,
    OrderItem,
    OrPred,
    Predicate,
    QuantifiedPred,
    ScalarSubquery,
    SelectItem,
    SelectStmt,
    TableRef,
    ValueExpr,
)
from .lexer import Token, tokenize

COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------ #

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect_kw(self, word: str) -> Token:
        if not self.cur.is_kw(word):
            raise ParseError(
                f"expected {word.upper()}, found {self.cur.value!r}",
                self.cur.position,
                self.cur.line,
            )
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not (self.cur.kind == "op" and self.cur.value == op):
            raise ParseError(
                f"expected {op!r}, found {self.cur.value!r}",
                self.cur.position,
                self.cur.line,
            )
        return self.advance()

    def accept_kw(self, word: str) -> bool:
        if self.cur.is_kw(word):
            self.advance()
            return True
        return False

    def accept_op(self, op: str) -> bool:
        if self.cur.kind == "op" and self.cur.value == op:
            self.advance()
            return True
        return False

    # -- grammar productions -------------------------------------------- #

    def parse(self) -> SelectStmt:
        stmt = self.select()
        if self.cur.kind != "eof":
            raise ParseError(
                f"unexpected trailing input {self.cur.value!r}",
                self.cur.position,
                self.cur.line,
            )
        return stmt

    def select(self) -> SelectStmt:
        self.expect_kw("select")
        distinct = self.accept_kw("distinct")
        items = self.select_items()
        self.expect_kw("from")
        tables = self.table_list()
        where: Optional[Predicate] = None
        if self.accept_kw("where"):
            where = self.predicate()
        group_by: List[ColumnRef] = []
        having: Optional[Predicate] = None
        if self.accept_kw("group"):
            self.expect_kw("by")
            group_by.append(self.column_ref())
            while self.accept_op(","):
                group_by.append(self.column_ref())
        if self.accept_kw("having"):
            having = self.predicate()
        order_by: List[OrderItem] = []
        if self.accept_kw("order"):
            self.expect_kw("by")
            order_by.append(self.order_item())
            while self.accept_op(","):
                order_by.append(self.order_item())
        limit: Optional[int] = None
        if self.accept_kw("limit"):
            tok = self.cur
            if tok.kind != "number" or any(c in tok.value for c in ".eE"):
                raise ParseError(
                    "LIMIT expects an integer", tok.position, tok.line
                )
            self.advance()
            limit = int(tok.value)
        return SelectStmt(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            distinct=distinct,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
        )

    def order_item(self) -> OrderItem:
        ref = self.column_ref()
        descending = False
        if self.accept_kw("desc"):
            descending = True
        elif self.accept_kw("asc"):
            descending = False
        return OrderItem(expr=ref, descending=descending)

    def select_items(self) -> List[SelectItem]:
        if self.accept_op("*"):
            return [SelectItem(expr=None, star=True)]
        items = [self.select_item()]
        while self.accept_op(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        agg = self.maybe_aggregate_call()
        if agg is not None:
            return SelectItem(expr=agg)
        return SelectItem(expr=self.column_ref())

    def maybe_aggregate_call(self) -> Optional[AggregateCall]:
        """An :class:`AggregateCall` when the cursor sits on one, else None.

        Aggregate names are ordinary identifiers; only ``name(`` with a
        known *name* is treated as a call (maximal-munch lookahead).
        """
        tok = self.cur
        nxt = self.tokens[self.pos + 1]
        if not (
            tok.kind == "ident"
            and tok.value.lower() in AGGREGATE_FUNCS
            and nxt.kind == "op"
            and nxt.value == "("
        ):
            return None
        func = self.advance().value.lower()
        self.expect_op("(")
        if self.accept_op("*"):
            if func != "count":
                raise ParseError(
                    f"{func}(*) is not valid; only COUNT takes '*'",
                    tok.position,
                    tok.line,
                )
            self.expect_op(")")
            return AggregateCall(func="count", arg=None, star=True)
        arg = self.column_ref()
        self.expect_op(")")
        return AggregateCall(func=func, arg=arg)

    def table_list(self) -> List[TableRef]:
        tables = [self.table_ref()]
        while self.accept_op(","):
            tables.append(self.table_ref())
        return tables

    def table_ref(self) -> TableRef:
        if self.cur.kind != "ident":
            raise ParseError(
                f"expected table name, found {self.cur.value!r}",
                self.cur.position,
                self.cur.line,
            )
        name = self.advance().value
        alias: Optional[str] = None
        if self.accept_kw("as"):
            if self.cur.kind != "ident":
                raise ParseError(
                    "expected alias after AS", self.cur.position, self.cur.line
                )
            alias = self.advance().value
        elif self.cur.kind == "ident":
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def column_ref(self) -> ColumnRef:
        if self.cur.kind != "ident":
            raise ParseError(
                f"expected column reference, found {self.cur.value!r}",
                self.cur.position,
                self.cur.line,
            )
        first = self.advance().value
        if self.accept_op("."):
            if self.cur.kind != "ident":
                raise ParseError(
                    "expected column after '.'", self.cur.position, self.cur.line
                )
            return ColumnRef(table=first, column=self.advance().value)
        return ColumnRef(table=None, column=first)

    # -- predicates ------------------------------------------------------ #

    def predicate(self) -> Predicate:
        left = self.and_pred()
        while self.accept_kw("or"):
            left = OrPred(left, self.and_pred())
        return left

    def and_pred(self) -> Predicate:
        left = self.not_pred()
        while self.accept_kw("and"):
            left = AndPred(left, self.not_pred())
        return left

    def not_pred(self) -> Predicate:
        if self.cur.is_kw("not"):
            # NOT EXISTS is handled as a single unit in primary_pred so the
            # analyzer sees a negated ExistsPred rather than NOT(EXISTS).
            if self.tokens[self.pos + 1].is_kw("exists"):
                return self.primary_pred()
            self.advance()
            return NotPred(self.not_pred())
        return self.primary_pred()

    def primary_pred(self) -> Predicate:
        if self.cur.is_kw("not") and self.tokens[self.pos + 1].is_kw("exists"):
            self.advance()
            self.expect_kw("exists")
            self.expect_op("(")
            sub = self.select()
            self.expect_op(")")
            return ExistsPred(subquery=sub, negated=True)
        if self.cur.is_kw("exists"):
            self.advance()
            self.expect_op("(")
            sub = self.select()
            self.expect_op(")")
            return ExistsPred(subquery=sub, negated=False)
        if self.cur.kind == "op" and self.cur.value == "(":
            # could be a parenthesized predicate or a parenthesized value;
            # try predicate first by saving the position.
            saved = self.pos
            try:
                self.advance()
                inner = self.predicate()
                self.expect_op(")")
                return inner
            except ParseError:
                self.pos = saved
        value = self.value_expr()
        return self.postfix_pred(value)

    def postfix_pred(self, value: ValueExpr) -> Predicate:
        if self.accept_kw("is"):
            negated = self.accept_kw("not")
            self.expect_kw("null")
            return IsNullPred(operand=value, negated=negated)
        if self.accept_kw("between"):
            low = self.value_expr()
            self.expect_kw("and")
            high = self.value_expr()
            return BetweenPred(operand=value, low=low, high=high)
        negated = False
        if self.cur.is_kw("not"):
            if not self.tokens[self.pos + 1].is_kw("in"):
                raise ParseError(
                    "expected IN after NOT", self.cur.position, self.cur.line
                )
            self.advance()
            negated = True
        if self.accept_kw("in"):
            self.expect_op("(")
            if self.cur.is_kw("select"):
                sub = self.select()
                self.expect_op(")")
                return InSubqueryPred(operand=value, subquery=sub, negated=negated)
            items = [self.value_expr()]
            while self.accept_op(","):
                items.append(self.value_expr())
            self.expect_op(")")
            return InListPred(operand=value, items=tuple(items), negated=negated)
        if self.cur.kind == "op" and self.cur.value in COMPARISON_OPS:
            op = self.advance().value
            if op == "!=":
                op = "<>"
            if self.cur.is_kw("any") or self.cur.is_kw("some") or self.cur.is_kw("all"):
                quantifier = "all" if self.cur.value == "all" else "some"
                self.advance()
                self.expect_op("(")
                sub = self.select()
                self.expect_op(")")
                return QuantifiedPred(
                    operand=value, op=op, quantifier=quantifier, subquery=sub
                )
            right = self.value_expr()
            return ComparisonPred(op=op, left=value, right=right)
        raise ParseError(
            f"expected predicate operator, found {self.cur.value!r}",
            self.cur.position,
            self.cur.line,
        )

    # -- value expressions ------------------------------------------------ #

    def value_expr(self) -> ValueExpr:
        left = self.term()
        while self.cur.kind == "op" and self.cur.value in ("+", "-"):
            op = self.advance().value
            left = BinaryArith(op=op, left=left, right=self.term())
        return left

    def term(self) -> ValueExpr:
        left = self.factor()
        while self.cur.kind == "op" and self.cur.value in ("*", "/"):
            op = self.advance().value
            left = BinaryArith(op=op, left=left, right=self.factor())
        return left

    def factor(self) -> ValueExpr:
        tok = self.cur
        if tok.kind == "number":
            self.advance()
            if any(c in tok.value for c in ".eE"):
                return Constant(float(tok.value))
            return Constant(int(tok.value))
        if tok.kind == "string":
            self.advance()
            return Constant(tok.value)
        if tok.is_kw("null"):
            self.advance()
            from ..engine.types import NULL

            return Constant(NULL)
        if tok.is_kw("true"):
            self.advance()
            return Constant(True)
        if tok.is_kw("false"):
            self.advance()
            return Constant(False)
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            inner = self.factor()
            if isinstance(inner, Constant) and isinstance(inner.value, (int, float)):
                return Constant(-inner.value)
            return BinaryArith(op="-", left=Constant(0), right=inner)
        if tok.kind == "op" and tok.value == "(":
            if self.tokens[self.pos + 1].is_kw("select"):
                self.advance()
                sub = self.select()
                self.expect_op(")")
                return ScalarSubquery(subquery=sub)
            self.advance()
            inner = self.value_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            agg = self.maybe_aggregate_call()
            if agg is not None:
                return agg
            return self.column_ref()
        raise ParseError(
            f"expected value expression, found {tok.value!r}",
            tok.position,
            tok.line,
        )


def parse(text: str) -> SelectStmt:
    """Parse SQL text into a :class:`~repro.sql.ast.SelectStmt`."""
    return Parser(text).parse()
