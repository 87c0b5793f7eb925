"""SQL value model and three-valued logic.

The engine stores SQL values as plain Python objects (``int``, ``float``,
``str``, :class:`datetime.date`) with a single distinguished singleton,
:data:`NULL`, standing for the SQL NULL marker.  We deliberately do *not*
use Python ``None`` so that "missing value" never gets confused with
"missing Python object", and so that NULLs survive round-trips through
containers that treat ``None`` specially.

Comparisons involving NULL yield :data:`UNKNOWN` under SQL's three-valued
logic (3VL), implemented by :class:`TriBool`.  Getting 3VL right is load
bearing for this reproduction: the paper's central claim is that classical
unnesting rewrites of ``ALL`` / ``NOT IN`` subqueries are *unsound* in the
presence of NULLs, and every strategy in this repository must agree with
tuple-iteration SQL semantics on NULL-heavy data.
"""

from __future__ import annotations

import datetime
import enum
import operator
from typing import Any, Callable, Iterable, Sequence, Union

from ..errors import TypeError_
from .logic import two_valued


class _SqlNull:
    """Singleton marker for SQL NULL.

    NULL is not equal to anything, including itself, under SQL semantics;
    however the *Python* object must still be usable in hash containers
    (e.g. to group identical rows during ``nest``), so Python-level
    ``__eq__`` is identity and ``__hash__`` is constant.  SQL-level
    comparison goes through :func:`compare` / :func:`sql_eq` instead.
    """

    _instance: "_SqlNull" = None

    def __new__(cls) -> "_SqlNull":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __reduce__(self):
        return (_SqlNull, ())

    def __bool__(self) -> bool:
        return False


#: The SQL NULL marker.  There is exactly one instance.
NULL = _SqlNull()

#: A SQL value as stored in rows.
SqlValue = Union[_SqlNull, int, float, str, bool, datetime.date]


def is_null(value: Any) -> bool:
    """Return True if *value* is the SQL NULL marker."""
    return value is NULL


class TriBool(enum.Enum):
    """SQL three-valued logic: TRUE, FALSE, UNKNOWN.

    The enum implements Kleene logic through ``&``, ``|`` and ``~`` so
    predicate evaluators can combine results without branching on UNKNOWN
    everywhere.
    """

    FALSE = 0
    TRUE = 1
    UNKNOWN = 2

    def __and__(self, other: "TriBool") -> "TriBool":
        if self is TriBool.FALSE or other is TriBool.FALSE:
            return TriBool.FALSE
        if self is TriBool.UNKNOWN or other is TriBool.UNKNOWN:
            return TriBool.UNKNOWN
        return TriBool.TRUE

    def __or__(self, other: "TriBool") -> "TriBool":
        if self is TriBool.TRUE or other is TriBool.TRUE:
            return TriBool.TRUE
        if self is TriBool.UNKNOWN or other is TriBool.UNKNOWN:
            return TriBool.UNKNOWN
        return TriBool.FALSE

    def __invert__(self) -> "TriBool":
        if self is TriBool.TRUE:
            return TriBool.FALSE
        if self is TriBool.FALSE:
            return TriBool.TRUE
        return TriBool.UNKNOWN

    def is_true(self) -> bool:
        """True iff the value is definitely TRUE.

        This is the test SQL applies in a WHERE clause: rows whose predicate
        evaluates to FALSE *or* UNKNOWN are filtered out.
        """
        return self is TriBool.TRUE

    @staticmethod
    def from_bool(value: bool) -> "TriBool":
        return TriBool.TRUE if value else TriBool.FALSE


TRUE = TriBool.TRUE
FALSE = TriBool.FALSE
UNKNOWN = TriBool.UNKNOWN


def tri_value(t: TriBool) -> SqlValue:
    """A verdict as the SQL value a column holds: TRUE, FALSE or NULL
    (a mark column, ``bool_and`` / ``bool_or``)."""
    if t is TRUE:
        return True
    if t is FALSE:
        return False
    return NULL


def tri_all(values: Iterable[TriBool]) -> TriBool:
    """3VL conjunction over an iterable; vacuously TRUE.

    This is exactly the semantics of a ``theta ALL`` linking predicate over
    a set of comparison outcomes: FALSE dominates, then UNKNOWN, else TRUE.
    """
    result = TriBool.TRUE
    for v in values:
        if v is TriBool.FALSE:
            return TriBool.FALSE
        if v is TriBool.UNKNOWN:
            result = TriBool.UNKNOWN
    return result


def tri_any(values: Iterable[TriBool]) -> TriBool:
    """3VL disjunction over an iterable; vacuously FALSE.

    This is the semantics of a ``theta SOME/ANY`` linking predicate:
    TRUE dominates, then UNKNOWN, else FALSE.
    """
    result = TriBool.FALSE
    for v in values:
        if v is TriBool.TRUE:
            return TriBool.TRUE
        if v is TriBool.UNKNOWN:
            result = TriBool.UNKNOWN
    return result


_NUMERIC_TYPES = (int, float)


def _comparable(left: Any, right: Any) -> bool:
    """Whether two non-NULL SQL values can be ordered against each other."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        return True
    return type(left) is type(right)


def compare(left: SqlValue, right: SqlValue) -> TriBool:
    """SQL equality comparison returning a :class:`TriBool`.

    Kept for symmetry; most callers use the operator-specific helpers.
    """
    return sql_compare("=", left, right)


def sql_compare(op: str, left: SqlValue, right: SqlValue) -> TriBool:
    """Evaluate ``left op right`` under SQL 3VL semantics.

    *op* is one of ``= <> < <= > >=`` (``!=`` accepted as alias of ``<>``).
    Any comparison involving NULL is UNKNOWN — unless the session runs in
    Libkin's two-valued mode (:mod:`repro.engine.logic`), where it is
    FALSE.  Comparing incompatible types raises
    :class:`repro.errors.TypeError_` rather than guessing.
    """
    if left is NULL or right is NULL:
        return TriBool.FALSE if two_valued() else TriBool.UNKNOWN
    if not _comparable(left, right):
        raise TypeError_(
            f"cannot compare {type(left).__name__} with {type(right).__name__}"
            f" ({left!r} {op} {right!r})"
        )
    if op == "=":
        return TriBool.from_bool(left == right)
    if op in ("<>", "!="):
        return TriBool.from_bool(left != right)
    if op == "<":
        return TriBool.from_bool(left < right)
    if op == "<=":
        return TriBool.from_bool(left <= right)
    if op == ">":
        return TriBool.from_bool(left > right)
    if op == ">=":
        return TriBool.from_bool(left >= right)
    raise TypeError_(f"unknown comparison operator {op!r}")


def sql_eq(left: SqlValue, right: SqlValue) -> TriBool:
    """Shorthand for :func:`sql_compare` with ``=``."""
    return sql_compare("=", left, right)


NEGATED_OP = {
    "=": "<>",
    "<>": "=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}

FLIPPED_OP = {
    "=": "=",
    "<>": "<>",
    "!=": "!=",
    "<": ">",
    "<=": ">=",
    ">": "<",
    ">=": "<=",
}


def negate_op(op: str) -> str:
    """Return the logical negation of a comparison operator (``<`` -> ``>=``)."""
    return NEGATED_OP[op]


def flip_op(op: str) -> str:
    """Return the operator with operands swapped (``<`` -> ``>``)."""
    return FLIPPED_OP[op]


def group_key(value: SqlValue) -> Any:
    """A hashable grouping key for a single SQL value.

    NULLs group together (as in SQL GROUP BY / our ``nest``), and ints and
    floats that are numerically equal share a key.  Booleans are kept
    distinct from ints.
    """
    if value is NULL:
        return ("\0null",)
    if isinstance(value, bool):
        return ("\0bool", value)
    if isinstance(value, (int, float)):
        return ("\0num", float(value)) if float(value) == value else ("\0num", value)
    return value


def row_group_key(row: Iterable[SqlValue]) -> tuple:
    """Hashable grouping key for a sequence of SQL values."""
    return tuple(group_key(v) for v in row)


def bind_join_key(positions: Sequence[int]) -> Callable[[tuple], Any]:
    """``row -> hash key of row's values at *positions*``, resolved once
    per operator run; None when any of them is NULL.

    Two rows get equal keys exactly when neither has a NULL there and
    :func:`row_group_key` of the values agree — an equi-join's match
    test, NULL keys never matching.  Python's own ``==`` / ``hash``
    already identify ``1`` with ``1.0`` and keep text, dates and numbers
    apart; only ``True == 1`` has to be undone, by tagging booleans.
    """
    if len(positions) == 1:
        (only,) = positions

        def key_of(row: tuple) -> Any:
            value = row[only]
            if value is NULL:
                return None
            return ("\0bool", value) if type(value) is bool else value

        return key_of

    if not positions:
        return lambda row: ()
    values_of = operator.itemgetter(*positions)

    def keys_of(row: tuple) -> Any:
        values = values_of(row)
        for value in values:
            if value is NULL:
                return None
        if bool in map(type, values):
            return tuple(
                ("\0bool", v) if type(v) is bool else v for v in values
            )
        return values

    return keys_of


def sort_key(value: SqlValue):
    """A total-order sort key placing NULLs first, then by type bucket.

    Used by sort-based ``nest``: the precise order among type buckets is
    irrelevant; what matters is that identical grouping keys are adjacent.
    """
    if value is NULL:
        return (0, 0)
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (2, value)
    if isinstance(value, str):
        return (3, value)
    if isinstance(value, datetime.date):
        return (4, value.toordinal())
    return (5, repr(value))


def row_sort_key(row: Iterable[SqlValue]) -> tuple:
    """Total-order sort key for a sequence of SQL values."""
    return tuple(sort_key(v) for v in row)
