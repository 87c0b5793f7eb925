"""The execution entry: root span, governor start, root ORDER BY /
GROUP BY.

:func:`run` executes one :class:`~repro.core.optimizer.PlannerDecision`
— what :func:`repro.core.optimizer.resolve` made of an execution
request — under whatever the ambient
:class:`~repro.engine.context.ExecutionContext` holds: the governor is
started and its spill workspace swept, the root ``execute`` span names
the strategy that runs whenever tracing is active, and the root block's
presentation clauses are applied last.  Nothing here decides *what*
runs.
"""

from __future__ import annotations

from typing import Union

from ..engine.catalog import Database
from ..engine.governor import checkpoint, current_governor
from ..engine.metrics import current_metrics
from ..engine.relation import Relation
from ..engine.trace import KIND_GOVERNOR, Tracer, current_tracer
from .blocks import NestedQuery
from .feedback import ROOT_SPAN
from .optimizer import PlannerDecision, resolve
from .reduce import group_block


def open_root(tracer: Tracer):
    """Open a traced execution's root ``execute`` span; :func:`run`
    names the strategy on it once the decision is known."""
    return tracer.span(ROOT_SPAN, {}, kind="root")


def run(
    query: NestedQuery,
    db: Database,
    strategy: Union[str, object, PlannerDecision] = "auto",
) -> Relation:
    """Evaluate *query* against *db* (the internal execution entry).

    :meth:`repro.session.PreparedQuery.execute` passes the
    :class:`~repro.core.optimizer.PlannerDecision` it resolved (and
    memoized) from the layered options; anything else — ``"auto"``, a
    registry name, a strategy instance — is resolved here with
    :func:`~repro.core.optimizer.resolve`'s defaults.

    The decision's instance runs under the root trace span when tracing
    is active; root-level ORDER BY/LIMIT apply last and
    ``rows_produced`` is charged.  A root span open on the tracer
    already is this execution's: a traced session execution opens it
    first (:func:`open_root`), so that it also brackets the option
    layering, the resolution and the feedback harvest.  The governor is
    the ambient context's: the Session API installs it with the logic
    mode and the reduce cache, any other caller wraps the call in
    :func:`~repro.engine.governor.governed`.
    """
    governor = current_governor()
    if isinstance(strategy, PlannerDecision):
        decision = strategy
    else:
        decision = resolve(query, db, strategy)
    impl = decision.impl
    try:
        if governor is not None:
            governor.start()
        checkpoint("plan")
        tracer = current_tracer()
        if tracer is None:
            result = _finalize(impl.execute(query, db), query)
            current_metrics().add("rows_produced", len(result))
            return result
        root = tracer.innermost()
        if root is not None and root.kind == "root":
            return _run_traced(tracer, root, query, db, decision, governor)
        with open_root(tracer) as root:
            return _run_traced(tracer, root, query, db, decision, governor)
    finally:
        # sweep this execution's private spill workspace (if any pass
        # created one) so a shared spill_dir ends every execution —
        # including aborted ones — as empty as it started
        if governor is not None:
            governor.cleanup_spill_workspace()


def _run_traced(tracer, root, query, db, decision, governor) -> Relation:
    """:func:`run`'s execution under the open *root* span."""
    root.attrs["strategy"] = decision.chosen
    impl = decision.impl
    if governor is not None:
        with tracer.span(
            "governor", governor.describe_attrs(), kind=KIND_GOVERNOR
        ):
            result = impl.execute(query, db)
    else:
        result = impl.execute(query, db)
    result = _finalize(result, query)
    current_metrics().add("rows_produced", len(result))
    root.add("rows_out", len(result))
    return result


def _finalize(result: Relation, query: NestedQuery) -> Relation:
    """Apply root-level ORDER BY / LIMIT to a strategy's bag result.

    Strategies are order-agnostic (the paper's algebra is set-based); the
    presentation clauses are applied once here so every strategy gets
    them for free and stays comparable.
    """
    root = query.root
    if root.group_by or root.aggregates or root.having is not None:
        # strategies return the SELECT list's bag, multiplicity kept, so
        # aggregation composes here exactly as in SQL
        result = group_block(root, result).project(root.output_refs)
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
