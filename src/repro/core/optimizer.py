"""Request resolution, and the cost-based planner behind ``"auto"``.

:func:`resolve` is the one place an execution request — strategy,
backend, feedback, memory budget — becomes the instance that
runs: ``execute``, ``trace`` and EXPLAIN all read the
:class:`PlannerDecision` it returns.  A named strategy or an instance
resolves without pricing; ``"auto"`` goes to :func:`choose`.

The paper's central experimental claim (Section 5, Figures 4–9) is that
no single subquery strategy wins everywhere — nested iteration, the
rewrite baselines and the nested relational algorithms cross over with
cardinality and selectivity.  This module turns that observation into
the routing policy: :func:`choose` enumerates **every applicable
registered strategy**, prices each with the per-strategy cost hooks
over one :class:`~repro.core.stats.PlanStats`, and picks the cheapest.

Costs are abstract *row-ops* scaled by per-backend constants calibrated
from the committed BENCH baselines (``benchmarks/baselines/``): the
columnar engine runs the same row-op roughly 40× faster than the tuple
iterator (:data:`VECTOR_FACTOR`) but pays a per-query batch-build setup
(:data:`VECTOR_SETUP`), so tiny inputs favor the row strategies and
paper-scale inputs the vector ones — reproducing the crossovers of
Figure 4.

Strategies without a registered ``cost`` hook still participate: they
are priced at the generic pipeline work times
:data:`DEFAULT_COST_FACTOR` — deliberately pessimistic, so an uncosted
third-party strategy is only chosen when every built-in is worse.

The :class:`PlannerDecision` is a durable artifact: the session
memoizes it (a cost-based one keyed by the feedback epoch),
:func:`repro.core.planner.run` executes it and records a cost-based one
as a ``kind='planner'`` trace span, and ``repro explain`` renders it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..errors import PlanError
from ..engine.catalog import Database
from ..strategies import ROW_BACKEND, VECTOR_BACKEND
from .blocks import NestedQuery
from .feedback import FeedbackStore
from .plancache import PlanMemo
from .stats import DbStats, PlanStats, collect_stats

# --------------------------------------------------------------------- #
# calibrated cost constants (see benchmarks/baselines/BENCH_*.json)
# --------------------------------------------------------------------- #

#: vector row-op cost relative to a row-engine row-op: the committed
#: BENCH_vector baseline shows the columnar kernels ~40× faster on the
#: paper queries at SF 0.01
VECTOR_FACTOR = 0.025
#: per-query cost of building/loading the columnar batches, in row-ops;
#: below ~10k row-ops of work the row engine wins
VECTOR_SETUP = 512.0
#: index-probe cost relative to a scanned row (System A emulation)
PROBE_FACTOR = 4.0
#: pessimistic multiplier for strategies without a ``cost`` hook
DEFAULT_COST_FACTOR = 1.5
#: cost of one spilled row-op relative to an in-memory vector row-op:
#: a Grace spill pass writes every partitioned row to disk and reads it
#: back, so spilling plans are priced above any plan that fits in the
#: budget (sequential temp-file I/O, not a catastrophe — the row engine
#: can still lose to a spilling vector plan on big inputs)
SPILL_IO_FACTOR = 2.5


# --------------------------------------------------------------------- #
# built-in cost hooks (registered by the strategy modules)
# --------------------------------------------------------------------- #


def cost_nested_relational(ps: PlanStats) -> float:
    """Algorithm 1: reduce, outer-join down, hash-nest + link up."""
    return ps.pipeline_work


def cost_nested_relational_sorted(ps: PlanStats) -> float:
    """Algorithm 1 with the sort-based nest: same joins, dearer nests."""
    return ps.scan_work + ps.join_work + 1.3 * ps.nest_work


def cost_optimized(ps: PlanStats) -> float:
    """Single-pass pipeline: one fused sort replaces per-level nests."""
    return ps.scan_work + 0.75 * (ps.join_work + ps.nest_work)


def cost_bottomup(ps: PlanStats) -> float:
    """Bottom-up with nest push-down: intermediates stay reduced-size."""
    return ps.scan_work + ps.bottomup_work


def cost_positive_rewrite(ps: PlanStats) -> float:
    """Semijoin chain: no padding, no nesting — cheapest row plan."""
    return ps.scan_work + ps.semijoin_work


def cost_nested_iteration(ps: PlanStats) -> float:
    """Per-outer-tuple re-evaluation of every subquery (the oracle)."""
    return ps.scan_work + ps.iteration_work


def cost_system_a(ps: PlanStats) -> float:
    """Per-tuple index probes: linear in outer rows, not in inner size."""
    return ps.scan_work + PROBE_FACTOR * ps.probe_work


def cost_unnesting(ps: PlanStats) -> float:
    """Classical semi/antijoin unnesting: join work without the nests."""
    return ps.scan_work + ps.join_work + 0.25 * ps.nest_work


def cost_agg_rewrite(ps: PlanStats) -> float:
    """Magic-style aggregate rewrite: joins plus a grouping pass."""
    return ps.scan_work + ps.join_work + 0.9 * ps.nest_work


def cost_count_rewrite(ps: PlanStats) -> float:
    """Kim-style COUNT rewrite: an extra outer-join leg for the counts."""
    return ps.scan_work + 1.2 * ps.join_work + 0.9 * ps.nest_work


def cost_boolean_aggregate(ps: PlanStats) -> float:
    """Mark-join rewrite: joins plus boolean-aggregation per outer row."""
    return ps.scan_work + 1.1 * ps.join_work + 0.8 * ps.nest_work


def cost_vectorized(ps: PlanStats) -> float:
    """Algorithm 1 on the columnar engine: cheap row-ops, fixed setup.

    Under a memory budget the hash builds may not fit; the estimated
    spill passes are charged at :data:`SPILL_IO_FACTOR`, so the planner
    prefers a non-spilling plan whenever one exists.
    """
    return VECTOR_SETUP + VECTOR_FACTOR * (
        ps.pipeline_work + SPILL_IO_FACTOR * ps.spill_io_work()
    )


def default_cost(ps: PlanStats) -> float:
    """Fallback for strategies registered without a ``cost`` hook."""
    return DEFAULT_COST_FACTOR * ps.pipeline_work


# --------------------------------------------------------------------- #
# applicability and fingerprints
# --------------------------------------------------------------------- #


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
class CandidatePlan:
    """One enumerated strategy with its estimated price."""

    name: str
    backend: str
    est_cost: float
    est_rows: float
    costed: bool
    chosen: bool

    def describe(self) -> str:
        marker = "*" if self.chosen else " "
        pricing = "" if self.costed else "  (default cost)"
        return (
            f"{marker} {self.name}  [{self.backend}]  "
            f"cost={self.est_cost:.1f}  rows~{self.est_rows:.0f}{pricing}"
        )


@dataclass(frozen=True)
class PlannerDecision:
    """What one execution request resolved to (:func:`resolve`).

    ``impl`` is the instance that runs and ``chosen``
    the name its root span carries.  A cost-based ``auto`` resolution
    also records ``candidates`` — every enumerated candidate, cheapest
    first — with the plan ``fingerprint``, the ``feedback_epoch`` it
    was priced at and ``est_rows``; a request that named its strategy
    was never priced and leaves them empty.
    """

    chosen: str
    impl: object
    candidates: Tuple[CandidatePlan, ...] = ()
    fingerprint: Optional[str] = None
    feedback_epoch: Optional[int] = None
    est_rows: Optional[float] = None

    def __post_init__(self) -> None:
        # not a field: what ``impl`` planned for the query, kept exactly
        # as long as the decision is (Algorithm 1 reads it through the
        # execution context)
        object.__setattr__(self, "plan_memo", PlanMemo())

    @property
    def est_cost(self) -> float:
        for cand in self.candidates:
            if cand.chosen:
                return cand.est_cost
        return float("nan")

    def describe(self) -> str:
        lines = [f"auto -> {self.chosen}  (cost-based)"]
        for cand in self.candidates:
            lines.append("  " + cand.describe())
        return "\n".join(lines)


def choose(
    query: NestedQuery,
    db: Database,
    backend: Optional[str] = None,
    feedback: Optional[FeedbackStore] = None,
    stats: Optional[DbStats] = None,
    memory_limit_mb: Optional[float] = None,
) -> PlannerDecision:
    """Enumerate, cost and rank every applicable strategy.

    *backend* filters candidates to one substrate (``None`` considers
    both); aliases are presets of an enumerated strategy, not
    candidates.  *feedback* supplies
    observed cardinalities that override the estimates (and its epoch
    stamps the decision, so memoized decisions age out when new
    observations land).  *memory_limit_mb* is the execution memory
    budget: builds estimated not to fit are charged their extra spill
    I/O passes (:data:`SPILL_IO_FACTOR`).
    """
    from .. import strategies as registry

    registry.ensure_loaded()
    if stats is None:
        stats = collect_stats(db)
    fingerprint = plan_fingerprint(query)
    overrides: Dict[int, int] = {}
    epoch = 0
    if feedback is not None:
        overrides = feedback.block_overrides(fingerprint)
        epoch = feedback.epoch
    ps = PlanStats(
        query, stats, overrides=overrides, memory_limit_mb=memory_limit_mb
    )

    scored: List[Tuple[float, str, object, str, bool]] = []
    for entry in registry.entries():
        if backend is not None and entry.backend != backend:
            continue
        if entry.alias_of is not None:
            continue
        impl = entry.make()
        if not strategy_applicable(impl, query, db):
            continue
        costed = entry.cost is not None
        cost = entry.cost(ps) if costed else default_cost(ps)
        scored.append((cost, entry.name, impl, entry.backend, costed))
    if not scored:
        raise PlanError(
            f"no applicable strategy for backend={backend!r}; "
            f"registered: {registry.names()}"
        )
    scored.sort(key=lambda item: (item[0], item[1]))

    chosen_cost, chosen_name, impl, _b, _c = scored[0]
    candidates = tuple(
        CandidatePlan(
            name=name,
            backend=cand_backend,
            est_cost=cost,
            est_rows=ps.out_rows,
            costed=costed,
            chosen=name == chosen_name,
        )
        for cost, name, _impl, cand_backend, costed in scored
    )
    return PlannerDecision(
        chosen=chosen_name,
        impl=impl,
        candidates=candidates,
        fingerprint=fingerprint,
        feedback_epoch=epoch,
        est_rows=ps.out_rows,
    )


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
    feedback: Optional[FeedbackStore] = None,
    memory_limit_mb: Optional[float] = None,
) -> PlannerDecision:
    """Turn one execution request into the instance that runs it.

    * ``"auto"`` is priced by :func:`choose` under *backend*,
      *feedback* and *memory_limit_mb*;
    * a registry name resolves, unpriced, to its entry on the requested
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
        return choose(
            query, db, backend=backend, feedback=feedback,
            memory_limit_mb=memory_limit_mb,
        )
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
