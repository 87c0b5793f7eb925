"""Session-scoped logic mode: SQL 3VL (default) or Libkin's 2VL.

Standard SQL evaluates predicates under Kleene three-valued logic:
comparisons involving NULL yield UNKNOWN, and a WHERE clause keeps only
rows whose predicate is definitely TRUE.  Libkin ("Handling SQL Nulls
with Two-Valued Logic") argues that the same queries can be evaluated
under plain two-valued logic by declaring every comparison with NULL to
be FALSE — ``IS [NOT] NULL`` remains the only way to observe a NULL.
On NULL-free data the two semantics coincide exactly; with NULLs they
diverge under explicit negation: ``NOT (x = y)`` and ``NOT (x IN S)``
become TRUE when ``x`` is NULL under 2VL (classical negation of a
FALSE atom) where 3VL leaves them UNKNOWN.  Atomic negative links —
``x NOT IN S``, ``θ ALL`` — do *not* diverge observably: the NULL
operand fails every comparison, and FALSE and UNKNOWN drop the row
alike.

The mode is the ``logic`` field of the ambient
:class:`~repro.engine.context.ExecutionContext`: a session installs it
around every execution (cache keys include it), and every operator of
the execution reads it from there.

Three kernels consult the flag, and only three — every other evaluator
is written in terms of them:

* :func:`repro.engine.types.sql_compare` (row comparisons),
* :func:`repro.engine.expressions._truth` (NULL-as-predicate coercion),
* :func:`repro.engine.vector.exprs.compare_vectors` (mask pairs, where
  2VL collapses ``false_mask`` to ``~true_mask``).

The bound closures of :func:`repro.engine.expressions.bind_truth` are
the first two with the flag read ahead of the loop: a row operator
function binds its predicate when called, inside the execution's scope,
asks :func:`two_valued` once, and the closure carries the answer (FALSE
or UNKNOWN for a NULL operand) for that call only.
"""

from __future__ import annotations

from typing import ContextManager

from ..errors import InvalidArgumentError
from .context import ExecutionContext, current, scope

#: The logic modes a session can select.
LOGIC_MODES = ("3vl", "2vl")


def two_valued() -> bool:
    """True when the ambient mode is Libkin two-valued logic."""
    return current().logic == "2vl"


def validate_logic(logic: str) -> str:
    """Return *logic* normalized, or raise on an unknown mode."""
    if logic in LOGIC_MODES:  # every execution asks; most already are
        return logic
    if not isinstance(logic, str) or logic.lower() not in LOGIC_MODES:
        raise InvalidArgumentError(
            f"unknown logic mode {logic!r}; expected one of {LOGIC_MODES}"
        )
    return logic.lower()


def logic_mode(logic: str) -> ContextManager[ExecutionContext]:
    """Evaluate the enclosed block under the given logic mode."""
    return scope(logic=validate_logic(logic))
