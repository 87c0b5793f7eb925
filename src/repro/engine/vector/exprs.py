"""Vectorized expression evaluation under SQL three-valued logic.

A predicate over a :class:`~repro.engine.vector.batch.Batch` of *n* rows
evaluates to a pair of boolean masks ``(true, false)``; UNKNOWN is the
complement ``~(true | false)``.  This encodes Kleene logic as plain
boolean algebra:

====  ===========================  ===========================
node  true mask                    false mask
====  ===========================  ===========================
AND   ``t1 & t2``                  ``f1 | f2``
OR    ``t1 | t2``                  ``f1 & f2``
NOT   ``f``                        ``t``
cmp   ``both_valid & result``      ``both_valid & ~result``
====  ===========================  ===========================

Value expressions evaluate to a :class:`~repro.engine.vector.column.Vector`
(NULL as an invalid slot); arithmetic is NULL-propagating with
``x / 0 -> NULL``, exactly as the row engine's
:class:`~repro.engine.expressions.Arith`.

Comparisons between compatible kinds run as single numpy expressions;
incomparable or object-typed pairs fall back to per-row
:func:`~repro.engine.types.sql_compare`, preserving the row engine's
type errors.  Two ``str`` operands that both have an order key
(:attr:`~repro.engine.vector.column.Vector.order_key`) compare as
``uint64`` words — ``=`` / ``<>`` as an AND of word equalities, the
ordered operators as a lexicographic fold — instead of numpy's ``U``
compare.  A string literal facing a column (either side, and a
``BETWEEN``'s or ``IN`` list's literal items) is packed once as a
one-row key and compared by broadcast, never spread to *n* rows.  Only
the value comparison changes: the validity masks, and with them NULL →
UNKNOWN (or FALSE under two-valued logic), are built as for every kind.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from ...errors import ExpressionError
from ..expressions import (
    And,
    Arith,
    Between,
    Col,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from ..logic import two_valued
from ..types import TriBool, flip_op, sql_compare
from .batch import Batch
from .column import (
    FLOAT_EXACT_INT,
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_STR,
    NUMERIC_KINDS,
    Vector,
)

MaskPair = Tuple[np.ndarray, np.ndarray]


# --------------------------------------------------------------------- #
# Predicate evaluation -> (true, false) masks
# --------------------------------------------------------------------- #


def eval_truth(expr: Expr, batch: Batch) -> MaskPair:
    """Evaluate *expr* as a predicate over every row of *batch*."""
    n = len(batch)
    if isinstance(expr, Comparison):
        a, b = _operand(expr.left, batch), _operand(expr.right, batch)
        if isinstance(a, str):
            if isinstance(b, Vector) and b.kind == KIND_STR:
                # comparing two strings cannot raise, so which one is on
                # the left is invisible
                return _compare_to(flip_op(expr.op), b, a)
            a = Vector.from_scalar(a, n)
        return _compare_to(expr.op, a, b)
    if isinstance(expr, And):
        t1, f1 = eval_truth(expr.left, batch)
        t2, f2 = eval_truth(expr.right, batch)
        return t1 & t2, f1 | f2
    if isinstance(expr, Or):
        t1, f1 = eval_truth(expr.left, batch)
        t2, f2 = eval_truth(expr.right, batch)
        return t1 | t2, f1 & f2
    if isinstance(expr, Not):
        t, f = eval_truth(expr.operand, batch)
        return f, t
    if isinstance(expr, IsNull):
        v = eval_value(expr.operand, batch)
        null = ~v.valid
        t = null if not expr.negated else ~null
        return t, ~t
    if isinstance(expr, Between):
        v = eval_value(expr.operand, batch)
        lo, hi = _operand(expr.low, batch), _operand(expr.high, batch)
        t1, f1 = _compare_to(">=", v, lo)
        t2, f2 = _compare_to("<=", v, hi)
        return t1 & t2, f1 | f2
    if isinstance(expr, InList):
        v = eval_value(expr.operand, batch)
        t = np.zeros(n, dtype=bool)
        f = np.ones(n, dtype=bool)
        for item in expr.items:
            ti, fi = _compare_to("=", v, _operand(item, batch))
            t, f = t | ti, f & fi
        return (f, t) if expr.negated else (t, f)
    # value-typed expression used in predicate position (e.g. the TRUE
    # literal standing in for an empty conjunction)
    return vector_truth(eval_value(expr, batch), expr)


def vector_truth(vec: Vector, expr: Expr) -> MaskPair:
    """SQL truth of a value vector (bools; NULL -> UNKNOWN, or FALSE
    under the two-valued mode)."""
    if vec.kind == KIND_BOOL:
        t = vec.valid & vec.data
        if two_valued():
            return t, ~t
        return t, vec.valid & ~vec.data
    if not vec.valid.any():
        zeros = np.zeros(len(vec), dtype=bool)
        if two_valued():
            return zeros, np.ones(len(vec), dtype=bool)
        return zeros, zeros.copy()
    raise ExpressionError(f"expression {expr!r} is not a predicate")


# --------------------------------------------------------------------- #
# Value evaluation -> Vector
# --------------------------------------------------------------------- #


def eval_value(expr: Expr, batch: Batch) -> Vector:
    n = len(batch)
    if isinstance(expr, Col):
        return batch.column(expr.ref)
    if isinstance(expr, Literal):
        return Vector.from_scalar(expr.value, n)
    if isinstance(expr, Arith):
        return _arith_vectors(
            expr.op,
            eval_value(expr.left, batch),
            eval_value(expr.right, batch),
            expr,
        )
    # predicate-typed expression used as a value: TRUE/FALSE/NULL
    t, f = eval_truth(expr, batch)
    return Vector(KIND_BOOL, t, t | f)


# --------------------------------------------------------------------- #
# Comparison kernel
# --------------------------------------------------------------------- #

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _fast_comparable(a: Vector, b: Vector) -> bool:
    if a.kind in NUMERIC_KINDS and b.kind in NUMERIC_KINDS:
        # numpy compares an int with a float in float64, rounding ints
        # past 2**53; the row engine's Python comparison is exact
        return a.kind == b.kind or not (_past_float(a) or _past_float(b))
    return a.kind == b.kind and a.kind in (KIND_BOOL, KIND_STR)


def _past_float(v: Vector) -> bool:
    """Whether *v* is ``i8`` with a live value of magnitude 2**53 or more."""
    if v.kind != KIND_INT:
        return False
    info = np.iinfo(np.int64)
    lo = int(v.data.min(where=v.valid, initial=info.max))
    hi = int(v.data.max(where=v.valid, initial=info.min))
    return lo <= -FLOAT_EXACT_INT or hi >= FLOAT_EXACT_INT


def compare_vectors(op: str, a: Vector, b: Vector) -> MaskPair:
    """``a op b`` element-wise, as (true, false) masks.

    Under the two-valued mode every comparison touching a NULL slot is
    FALSE, so the false mask collapses to ``~true``.
    """
    both = a.valid & b.valid
    n = len(a)
    if not both.any():
        zeros = np.zeros(n, dtype=bool)
        if two_valued():
            return zeros, np.ones(n, dtype=bool)
        return zeros, zeros.copy()
    if _fast_comparable(a, b):
        if a.order_key is not None and b.order_key is not None:
            return _mask_pair(both, _key_compare(op, a.order_key, b.order_key))
        return _mask_pair(both, _CMP[op](a.data, b.data))
    # mixed / object kinds: defer to the row engine's semantics per pair
    # (this also raises TypeError_ on incomparable values, as rows do)
    t = np.zeros(n, dtype=bool)
    f = np.zeros(n, dtype=bool)
    av = a.data.tolist()
    bv = b.data.tolist()
    for i in np.flatnonzero(both).tolist():
        r = sql_compare(op, av[i], bv[i])
        if r is TriBool.TRUE:
            t[i] = True
        elif r is TriBool.FALSE:
            f[i] = True
    if two_valued():
        return t, ~t
    return t, f


def _mask_pair(both: np.ndarray, result: np.ndarray) -> MaskPair:
    """The masks of a value comparison *result* over the rows where both
    operands are present (*both*)."""
    t = both & result
    if two_valued():
        return t, ~t
    return t, both & ~result


def _operand(expr: Expr, batch: Batch) -> Union[Vector, str]:
    """A string literal as its value (compared by a packed one-row key,
    or spread to a vector only if that fails), anything else evaluated."""
    if isinstance(expr, Literal) and isinstance(expr.value, str):
        return expr.value
    return eval_value(expr, batch)


def _compare_to(op: str, a: Vector, b: Union[Vector, str]) -> MaskPair:
    """``a op b`` for a vector *a* and an :func:`_operand` *b*: a string
    literal facing a keyed vector is compared by broadcast against its
    one-row order key; one the key cannot serve is spread to a vector."""
    if isinstance(b, str):
        key = a.order_key
        lit = Vector.from_scalar(b, 1).order_key if key is not None else None
        if lit is not None:
            return _mask_pair(a.valid, _key_compare(op, key, lit))
        b = Vector.from_scalar(b, len(a))
    return compare_vectors(op, a, b)


_ZERO_WORD = np.uint64(0)


def _key_compare(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``op`` over two order keys (``(words, rows)``; a one-row key
    broadcasts), a shorter key reading zero words past its end: ``=`` /
    ``<>`` AND the word equalities, an ordered operator folds from the
    last word up — ``x_j < y_j``, or ``x_j == y_j`` and the rest."""
    words = max(len(a), len(b))

    def word(key: np.ndarray, j: int):
        return key[j] if j < len(key) else _ZERO_WORD

    if op in ("=", "<>", "!="):
        eq = word(a, 0) == word(b, 0)
        for j in range(1, words):
            eq = eq & (word(a, j) == word(b, j))
        return eq if op == "=" else ~eq
    strict = _CMP[op[0]]
    result = _CMP[op](word(a, words - 1), word(b, words - 1))
    for j in range(words - 2, -1, -1):
        x, y = word(a, j), word(b, j)
        result = strict(x, y) | ((x == y) & result)
    return result


# --------------------------------------------------------------------- #
# Arithmetic kernel
# --------------------------------------------------------------------- #


def _arith_vectors(op: str, a: Vector, b: Vector, expr: Arith) -> Vector:
    both = a.valid & b.valid
    n = len(a)
    if a.kind in NUMERIC_KINDS and b.kind in NUMERIC_KINDS:
        if op == "/":
            zero = b.data == 0
            valid = both & ~zero
            denom = np.where(zero, 1, b.data)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = a.data.astype(np.float64) / denom
            return Vector(KIND_FLOAT, out, valid)
        if op in ("+", "-", "*"):
            fn = {"+": np.add, "-": np.subtract, "*": np.multiply}[op]
            out = fn(a.data, b.data)
            kind = (
                KIND_FLOAT
                if KIND_FLOAT in (a.kind, b.kind)
                else KIND_INT
            )
            return Vector(kind, out, both)
        raise ExpressionError(f"unknown arithmetic operator {op!r}")
    # non-numeric (or object) operands: per-row Python semantics
    from ..expressions import _ARITH

    values = []
    av = a.tolist_sql()
    bv = b.tolist_sql()
    from ..types import NULL, is_null

    for x, y in zip(av, bv):
        if is_null(x) or is_null(y):
            values.append(NULL)
            continue
        try:
            values.append(_ARITH[op](x, y))
        except KeyError:
            raise ExpressionError(f"unknown arithmetic operator {op!r}")
        except ZeroDivisionError:
            values.append(NULL)
    return Vector.from_values(values)
