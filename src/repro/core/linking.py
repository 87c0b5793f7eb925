"""Linking predicates over nested relations (paper Definition 4).

A linking predicate compares an atomic attribute to a set-valued one:
``A θ SOME {B}``, ``A θ ALL {B}``, or tests set (non-)emptiness
``{B} = ∅`` / ``{B} ≠ ∅``.  Its evaluation is a *set computation* under
SQL three-valued logic — this is the paper's core observation: a
non-aggregate subquery provides, for each outer tuple, a set of values
(perhaps empty), and every SQL linking operator is a predicate over that
set:

=============  ==========================
SQL operator   linking predicate
=============  ==========================
EXISTS         {B} ≠ ∅
NOT EXISTS     {B} = ∅
A IN           A = SOME {B}
A NOT IN       A <> ALL {B}
A θ SOME/ANY   A θ SOME {B}
A θ ALL        A θ ALL {B}
=============  ==========================

**Empty-set detection.**  The pipeline materializes subquery results via
left outer joins, so "no inner tuple" appears as a row padded with NULLs.
Per the paper (Example 1) each block keeps its primary key, which is
non-null for genuine tuples; a member whose primary key is NULL is an
*empty marker* and is excluded from the set before evaluation.  This is
what distinguishes the empty set from a set containing a genuine NULL —
the distinction classical antijoin rewrites get wrong.

**Quantifier semantics (3VL).**  ``θ ALL`` is the 3VL conjunction of the
member comparisons (vacuously TRUE on the empty set); ``θ SOME`` the 3VL
disjunction (vacuously FALSE).  Comparing against a NULL member yields
UNKNOWN, so e.g. ``5 > ALL {2,3,4,NULL}`` is UNKNOWN — the example the
paper uses to show the max/antijoin rewrites are unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Tuple

from ..errors import ExpressionError
from ..engine.expressions import _comparer
from ..engine.types import (
    FALSE,
    NULL,
    TRUE,
    UNKNOWN,
    SqlValue,
    TriBool,
    is_null,
    sql_compare,
    tri_all,
    tri_any,
)

#: a group's members as the linking selections hand them over
Members = Iterable[Tuple[SqlValue, SqlValue]]

#: quantifiers accepted by :class:`SetPredicate`
QUANTIFIERS = ("some", "all", "exists", "not_exists", "agg")


def aggregate_value(
    func: str, values: Sequence[SqlValue], count_rows: int
) -> SqlValue:
    """One SQL aggregate over a group's *non-NULL argument values*.

    *count_rows* is the number of live tuples in the group (the
    ``COUNT(*)`` answer — it counts empty groups as 0, never NULL, which
    is exactly the zero-count behaviour the COUNT bug is about).
    """
    from ..engine.operators.aggregate import _finish

    return _finish(func, list(values), count_rows)


@dataclass(frozen=True)
class SetPredicate:
    """A compiled linking predicate, ready to evaluate group-by-group.

    ``quantifier`` ∈ {"some", "all", "exists", "not_exists", "agg"};
    *theta* is required for the quantified and aggregate forms and
    ignored for the existential ones.  Evaluation receives the linking
    value (LHS) and the group members together with their primary-key
    values.

    The ``"agg"`` form is the paper's nest-based answer to scalar
    aggregate subqueries: the nest operator already materializes the
    group, so the predicate aggregates the live members with *agg_func*
    and compares once — ``lhs θ agg({B})``.  A constant LHS (``0 =
    (SELECT COUNT(*) …)``) is carried in *const* as a 1-tuple so a NULL
    literal stays distinguishable from "use the linking value".
    """

    quantifier: str
    theta: Optional[str] = None
    agg_func: Optional[str] = None
    const: Optional[Tuple[SqlValue]] = None

    def __post_init__(self) -> None:
        if self.quantifier not in QUANTIFIERS:
            raise ExpressionError(f"unknown quantifier {self.quantifier!r}")
        if self.quantifier in ("some", "all", "agg") and self.theta is None:
            raise ExpressionError(f"quantifier {self.quantifier!r} needs a theta")
        if (self.quantifier == "agg") != (self.agg_func is not None):
            raise ExpressionError(
                "agg_func is required for (and exclusive to) 'agg' predicates"
            )

    def evaluate(self, linking_value: SqlValue, members: Members) -> TriBool:
        """Evaluate over ``members`` = iterable of (linked value, pk value).

        Members whose pk is NULL are empty markers and are skipped; the
        remaining values form the subquery result set for this group.

        This is the definition.  The row operators' loops call the
        :meth:`bind` form, which the tests hold to this one.
        """
        live = [value for value, pk in members if not is_null(pk)]
        if self.quantifier == "exists":
            return TriBool.from_bool(bool(live))
        if self.quantifier == "not_exists":
            return TriBool.from_bool(not live)
        assert self.theta is not None
        if self.quantifier == "agg":
            assert self.agg_func is not None
            agg = aggregate_value(
                self.agg_func,
                [v for v in live if not is_null(v)],
                len(live),
            )
            lhs = self.const[0] if self.const is not None else linking_value
            return sql_compare(self.theta, lhs, agg)
        comparisons = (sql_compare(self.theta, linking_value, v) for v in live)
        if self.quantifier == "all":
            return tri_all(comparisons)
        return tri_any(comparisons)

    def bind(self) -> Callable[[SqlValue, Members], TriBool]:
        """:meth:`evaluate` with the quantifier, θ, the aggregate and the
        logic mode resolved once (cf.
        :func:`~repro.engine.expressions.bind_truth`): bind inside the
        execution's scope, at the top of the loop that calls the
        closure, and do not keep it."""
        quantifier = self.quantifier
        if quantifier in ("exists", "not_exists"):
            if_live, if_empty = (
                (TRUE, FALSE) if quantifier == "exists" else (FALSE, TRUE)
            )

            def existential(linking_value: SqlValue, members: Members) -> TriBool:
                for _value, pk in members:
                    if pk is not NULL:
                        return if_live
                return if_empty

            return existential

        assert self.theta is not None
        compare = _comparer(self.theta)
        if quantifier == "agg":
            from ..engine.operators.aggregate import _finish

            func, const = self.agg_func, self.const

            def aggregate(linking_value: SqlValue, members: Members) -> TriBool:
                live = [value for value, pk in members if pk is not NULL]
                agg = _finish(
                    func, [v for v in live if v is not NULL], len(live)
                )
                return compare(
                    const[0] if const is not None else linking_value, agg
                )

            return aggregate

        # θ ALL is the 3VL conjunction, θ SOME the disjunction: the
        # deciding outcome ends the scan, as tri_all / tri_any do
        deciding, vacuous = (
            (FALSE, TRUE) if quantifier == "all" else (TRUE, FALSE)
        )

        def quantified(linking_value: SqlValue, members: Members) -> TriBool:
            result = vacuous
            for value, pk in members:
                if pk is NULL:
                    continue
                outcome = compare(linking_value, value)
                if outcome is deciding:
                    return deciding
                if outcome is UNKNOWN:
                    result = UNKNOWN
            return result

        return quantified

    @property
    def is_negative(self) -> bool:
        """Negative predicates are satisfied by the empty set."""
        return self.quantifier in ("all", "not_exists")

    def describe(self) -> str:
        if self.quantifier in ("exists", "not_exists"):
            return "{B} ≠ ∅" if self.quantifier == "exists" else "{B} = ∅"
        if self.quantifier == "agg":
            lhs = repr(self.const[0]) if self.const is not None else "A"
            return f"{lhs} {self.theta} {self.agg_func}({{B}})"
        return f"A {self.theta} {self.quantifier.upper()} {{B}}"
