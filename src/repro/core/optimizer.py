"""Request resolution, and the rule behind ``"auto"``.

:func:`resolve` is the one place an execution request — strategy and
backend — becomes the instance that runs: ``execute``, ``trace`` and
EXPLAIN all read the :class:`PlannerDecision` it returns.  A named
strategy or an instance is taken as asked; ``"auto"`` goes to
:func:`choose`.

``auto`` is a rule, not a price list: Algorithm 1 on the columnar
engine, or — when the request pins ``backend="row"`` — the paper's
single-pass optimized pipeline (§4.2.1-2) on the row engine.  Neither
has an applicability guard, so the rule never falls back.  Every other
registered strategy (the §4.2 presets, the rewrite baselines, System A
and nested iteration) stays reachable by name for the figures, the
ablations and the fuzzer.  DESIGN.md §14 records the measurements that
replaced the per-strategy cost model with this rule.

The session memoizes a :class:`PlannerDecision` per (SQL, strategy,
backend, logic); :func:`repro.core.planner.run` executes it and names
the chosen strategy on the root trace span.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import PlanError
from ..engine.catalog import Database
from ..strategies import ROW_BACKEND, VECTOR_BACKEND
from .blocks import NestedQuery
from .plancache import PlanMemo

#: what ``auto`` runs per requested backend (``None``: no backend asked)
AUTO_RULE: Dict[Optional[str], str] = {
    None: "nested-relational-vectorized",
    VECTOR_BACKEND: "nested-relational-vectorized",
    ROW_BACKEND: "nested-relational-optimized",
}


def strategy_applicable(impl: object, query: NestedQuery, db: Database) -> bool:
    """Whether *impl* accepts (query, db).  A guard is
    ``applicable(query, db) -> Optional[str]``: None accepts, a string
    is the refusal ``execute`` raises.  A strategy without a guard
    accepts everything."""
    guard = getattr(impl, "applicable", None)
    return guard is None or guard(query, db) is None


def plan_fingerprint(query: NestedQuery) -> str:
    """A stable digest of the plan's logical shape.

    Keys the :class:`~repro.core.feedback.FeedbackStore`: two prepared
    queries with the same block structure *and* the same predicates
    share observations.  ``QueryBlock.describe()`` omits local
    predicates, so they are folded in explicitly — a changed constant
    changes the fingerprint (its cardinalities are different facts).
    """
    parts: List[str] = []
    for block in query.root.walk():
        parts.append(
            "|".join(
                (
                    str(block.index),
                    ";".join(f"{a}={t}" for a, t in sorted(block.tables.items())),
                    block.link.describe() if block.link is not None else "",
                    ";".join(c.describe() for c in block.correlations),
                    repr(block.local_predicate),
                    ";".join(block.group_by),
                    ";".join(a.describe() for a in block.aggregates),
                    repr(block.having),
                    repr(block.residual),
                )
            )
        )
    digest = hashlib.sha1("\n".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


# --------------------------------------------------------------------- #
# the decision
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PlannerDecision:
    """What one execution request resolved to (:func:`resolve`).

    ``impl`` is the instance that runs and ``chosen`` the name its root
    span carries.
    """

    chosen: str
    impl: object
    # ROADMAP 1a removes ``candidates`` and choose()'s *memory_limit_mb*
    # with the benchmark code that still reads them: an ``auto`` decision
    # lists its one choice here, a named request none
    candidates: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # not a field: what ``impl`` planned for the query, kept exactly
        # as long as the decision is (Algorithm 1 reads it through the
        # execution context)
        object.__setattr__(self, "plan_memo", PlanMemo())


def choose(
    query: NestedQuery,
    db: Database,
    backend: Optional[str] = None,
    memory_limit_mb: Optional[float] = None,
) -> PlannerDecision:
    """The ``auto`` rule: :data:`AUTO_RULE`'s strategy for *backend*.

    Nothing is enumerated or priced, so the decision depends on
    *backend* alone — not on *query*, *db* or *memory_limit_mb*.
    """
    from .. import strategies as registry

    if backend not in AUTO_RULE:
        raise PlanError(
            f"unknown backend {backend!r}; expected one of {registry.BACKENDS}"
        )
    name = AUTO_RULE[backend]
    return PlannerDecision(name, registry.info(name).make(), (name,))


#: a backend-generic request maps onto its counterpart on the requested
#: backend: Algorithm 1 is registered once per substrate
_COUNTERPARTS: Dict[Tuple[str, str], str] = {
    (VECTOR_BACKEND, "nested-relational"): "nested-relational-vectorized",
    (ROW_BACKEND, "nested-relational-vectorized"): "nested-relational",
    (ROW_BACKEND, "nested-relational-parallel"): "nested-relational",
}


def resolve(
    query: NestedQuery,
    db: Database,
    strategy: Union[str, object] = "auto",
    backend: Optional[str] = None,
) -> PlannerDecision:
    """Turn one execution request into the instance that runs it.

    * ``"auto"`` is :func:`choose`'s rule for *backend*;
    * a registry name resolves to its entry on the requested
      *backend* (``None`` follows the registration; Algorithm 1's row
      and vectorized entries stand in for each other, any other name
      must be registered on the backend asked for);
    * a strategy instance is taken as is — it already fixes its own
      substrate, so *backend* must be unset.
    """
    from .. import strategies as registry

    if not isinstance(strategy, str):
        if backend is not None:
            raise PlanError(
                "backend cannot be overridden for a strategy instance; "
                "pass a registry name instead"
            )
        impl = strategy
    elif strategy == registry.AUTO:
        return choose(query, db, backend=backend)
    else:
        if backend is not None and backend not in registry.BACKENDS:
            raise PlanError(
                f"unknown backend {backend!r}; "
                f"expected one of {registry.BACKENDS}"
            )
        entry = registry.info(_COUNTERPARTS.get((backend, strategy), strategy))
        if backend is not None and entry.backend != backend:
            raise PlanError(
                f"strategy {entry.name!r} runs on the {entry.backend!r} "
                f"backend, but backend={backend!r} was requested"
            )
        impl = entry.make()
    return PlannerDecision(getattr(impl, "name", type(impl).__name__), impl)
