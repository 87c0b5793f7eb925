"""Strategy resolution and automatic strategy selection.

Strategy names live in the :mod:`repro.strategies` registry; this module
resolves them (honouring an execution-backend request) and dispatches
``"auto"`` onto the **cost-based planner**
(:func:`repro.core.optimizer.choose`): every applicable registered
strategy is enumerated, priced against sampled table statistics (plus
any per-session feedback observations), and the cheapest wins.  The
decision is recorded as a ``kind="planner"`` span under the root
``execute`` span whenever tracing is active.

:func:`run` / :func:`run_traced` are the internal execution entry points
used by :class:`repro.session.Session`.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import PlanError, ResourceGovernanceError
from ..engine.catalog import Database
from ..engine.governor import (
    ResourceGovernor,
    checkpoint,
    current_governor,
    governed,
)
from ..engine.metrics import current_metrics
from ..engine.relation import Relation
from ..engine.trace import (
    KIND_GOVERNOR,
    KIND_PLANNER,
    Tracer,
    current_tracer,
    op_span,
)
from .blocks import NestedQuery
from .feedback import FeedbackStore
from .optimizer import PlannerDecision, choose


def resolve_strategy(
    strategy: Union[str, object],
    backend: Optional[str] = None,
    threads: Optional[int] = None,
):
    """Turn a (strategy, backend, threads) request into an executable
    instance.

    *strategy* may be a registry name or an object with an
    ``execute(query, db)`` method (in which case *backend* must be left
    unset: an instance already fixes its own substrate).  ``"auto"`` is
    :func:`run`'s to resolve, through the cost-based planner.

    *threads* is forwarded to any resolved strategy exposing
    ``set_threads`` (the row engine is single-threaded).
    """
    from .. import strategies as registry

    if not isinstance(strategy, str):
        if backend is not None:
            raise PlanError(
                "backend cannot be overridden for a strategy instance; "
                "pass a registry name instead"
            )
        impl = strategy
    else:
        impl = registry.resolve(strategy, backend)
    if threads is not None and hasattr(impl, "set_threads"):
        impl.set_threads(threads)
    return impl


def _degraded(
    governor: Optional[ResourceGovernor], impl: object, exc: Exception
) -> Optional[object]:
    """The strategy to retry on, or None when the error is final.

    The degradation ladder has exactly one rung: a strategy running on
    several morsel workers (it exposes ``sequential()``, its own
    one-worker form) is retried once on one worker when the governor's
    policy is ``'sequential'`` and the failure is *not* a governance
    verdict — a breached deadline or budget has also been breached for
    any retry, so those always surface.
    """
    if governor is None or governor.degrade != "sequential":
        return None
    if isinstance(exc, ResourceGovernanceError):
        return None
    sequential = getattr(impl, "sequential", None)
    return sequential() if sequential is not None else None


def _run_strategy(
    impl: object,
    query: NestedQuery,
    db: Database,
    governor: Optional[ResourceGovernor],
) -> Relation:
    """Execute *impl*, applying the governor's degradation ladder."""
    from ..errors import ReproError

    try:
        return impl.execute(query, db)
    except ReproError as exc:
        retry = _degraded(governor, impl, exc)
        if retry is None:
            raise
        source = f"{impl.name}[threads={impl.threads}]"
        target = f"{retry.name}[threads={retry.threads}]"
        governor.record_degradation(source, target, type(exc).__name__)
        governor.check("degrade")  # a passed deadline beats the retry
        with op_span(
            "degrade",
            kind=KIND_GOVERNOR,
            source=source,
            target=target,
            reason=type(exc).__name__,
        ):
            return retry.execute(query, db)


def _emit_planner_span(tracer: Tracer, decision: PlannerDecision):
    """Record a :class:`~repro.core.optimizer.PlannerDecision` as a
    ``kind='planner'`` span with one ``candidate[...]`` child per
    enumerated strategy.  Returns the parent span so the caller can set
    ``actual_rows`` once the result cardinality is known (counters are
    read at serialization time, so setting one after the span closed is
    well-defined)."""
    with tracer.span(
        "planner",
        {
            "chosen": decision.chosen,
            "fingerprint": decision.fingerprint,
            "feedback_epoch": decision.feedback_epoch,
        },
        kind=KIND_PLANNER,
    ) as span:
        span.set("est_rows", int(decision.est_rows))
        for cand in decision.candidates:
            with tracer.span(
                f"candidate[{cand.name}]",
                {
                    "backend": cand.backend,
                    "est_cost": f"{cand.est_cost:.1f}",
                    "costed": cand.costed,
                    "chosen": cand.chosen,
                },
                kind=KIND_PLANNER,
            ) as cand_span:
                cand_span.set("est_rows", int(cand.est_rows))
    return span


def run(
    query: NestedQuery,
    db: Database,
    strategy: Union[str, object] = "auto",
    backend: Optional[str] = None,
    threads: Optional[int] = None,
    governor: Optional[ResourceGovernor] = None,
    feedback: Optional[FeedbackStore] = None,
) -> Relation:
    """Evaluate *query* against *db* (the internal execution entry).

    This is the single execution path behind
    :meth:`repro.session.PreparedQuery.execute`.  ``strategy="auto"``
    dispatches onto the cost-based planner
    (:func:`repro.core.optimizer.choose`, fed any *feedback*
    observations); a memoized :class:`~repro.core.optimizer.PlannerDecision`
    may be passed directly as *strategy* to replay a prior choice
    without re-costing.  The resolved strategy runs under the root trace
    span when tracing is active (with the decision recorded as a
    ``kind='planner'`` span); root-level ORDER BY/LIMIT apply last and
    the ``rows_produced`` metric is charged.

    The execution is governed by the ``governor`` of the ambient
    :class:`~repro.engine.context.ExecutionContext` (the Session API
    installs it together with the logic mode and the reduce cache);
    passing *governor* installs that one for this execution instead.
    """
    from .. import strategies as registry

    if governor is not None:
        with governed(governor):
            return run(
                query, db, strategy=strategy, backend=backend,
                threads=threads, feedback=feedback,
            )
    governor = current_governor()
    decision: Optional[PlannerDecision] = None
    if isinstance(strategy, PlannerDecision):
        decision = strategy
        impl = decision.impl
    elif isinstance(strategy, str) and strategy == registry.AUTO:
        limit_mb = None
        if governor is not None and governor.memory_limit_bytes is not None:
            limit_mb = governor.memory_limit_bytes / (1024 * 1024)
        decision = choose(
            query, db, backend=backend, threads=threads, feedback=feedback,
            memory_limit_mb=limit_mb,
        )
        impl = decision.impl
    else:
        impl = resolve_strategy(strategy, backend, threads=threads)
    try:
        if governor is not None:
            governor.start()
        checkpoint("plan")
        tracer = current_tracer()
        if tracer is None:
            result = _finalize(
                _run_strategy(impl, query, db, governor), query
            )
            current_metrics().add("rows_produced", len(result))
            return result
        name = getattr(impl, "name", type(impl).__name__)
        with tracer.span("execute", {"strategy": name}, kind="root") as span:
            planner_span = (
                _emit_planner_span(tracer, decision)
                if decision is not None
                else None
            )
            if governor is not None:
                with tracer.span(
                    "governor", governor.describe_attrs(), kind=KIND_GOVERNOR
                ):
                    result = _run_strategy(impl, query, db, governor)
            else:
                result = _run_strategy(impl, query, db, governor)
            result = _finalize(result, query)
            current_metrics().add("rows_produced", len(result))
            span.add("rows_out", len(result))
            if planner_span is not None:
                planner_span.set("actual_rows", len(result))
        return result
    finally:
        # sweep this execution's private spill workspace (if any pass
        # created one) so a shared spill_dir ends every execution —
        # including aborted ones — as empty as it started
        if governor is not None:
            governor.cleanup_spill_workspace()


def run_traced(
    query: NestedQuery,
    db: Database,
    strategy: Union[str, object] = "auto",
    backend: Optional[str] = None,
    threads: Optional[int] = None,
    governor: Optional[ResourceGovernor] = None,
    feedback: Optional[FeedbackStore] = None,
):
    """Like :func:`run`, under a fresh tracing scope; returns
    ``(result, trace)``."""
    from ..engine.trace import tracing

    with tracing() as trace:
        result = run(
            query, db, strategy=strategy, backend=backend, threads=threads,
            governor=governor, feedback=feedback,
        )
    return result, trace


def _finalize(result: Relation, query: NestedQuery) -> Relation:
    """Apply root-level ORDER BY / LIMIT to a strategy's bag result.

    Strategies are order-agnostic (the paper's algebra is set-based); the
    presentation clauses are applied once here so every strategy gets
    them for free and stays comparable.
    """
    root = query.root
    if root.group_by or root.aggregates or root.having is not None:
        result = _group_root_output(result, root)
    if root.order_by:
        from ..engine.types import row_sort_key

        positions = result.schema.indices_of([ref for ref, _d in root.order_by])
        rows = list(result.rows)
        # stable sort: apply keys right-to-left so leftmost wins
        for pos, (_ref, descending) in reversed(
            list(zip(positions, root.order_by))
        ):
            rows.sort(key=lambda r: row_sort_key((r[pos],)), reverse=descending)
        result = Relation(result.schema, rows)
    if root.limit is not None:
        result = Relation(result.schema, result.rows[: root.limit])
    return result


def _group_root_output(result: Relation, root) -> Relation:
    """Root-level GROUP BY / aggregates / HAVING over the strategy's bag.

    Strategies return the root block's ``select_refs`` with multiplicity
    preserved, so aggregation composes here exactly as in SQL: group,
    aggregate, filter by HAVING under 3VL truth, project the SELECT list.
    A global aggregate over zero input rows still yields one row (COUNT
    becomes 0, every other aggregate NULL).
    """
    from ..engine.expressions import bind_truth
    from ..engine.operators.aggregate import AggSpec, GroupAggregate
    from ..engine.types import NULL

    aggs = [AggSpec(a.func, a.arg, name=a.name) for a in root.aggregates]
    grouped = GroupAggregate(result, list(root.group_by), aggs).run()
    if not root.group_by and not grouped.rows:
        grouped = Relation(
            grouped.schema,
            [
                tuple(
                    0 if a.func in ("count", "count_star") else NULL
                    for a in aggs
                )
            ],
        )
    if root.having is not None:
        holds = bind_truth(root.having, grouped.schema)
        kept = [row for row in grouped.rows if holds(row).is_true()]
        grouped = Relation(grouped.schema, kept)
    return grouped.project(root.output_refs)
