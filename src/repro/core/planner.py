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

from contextlib import nullcontext

from ..engine.catalog import Database
from ..engine.governor import checkpoint, current_governor
from ..engine.metrics import current_metrics
from ..engine.relation import Relation
from ..engine.trace import KIND_GOVERNOR, current_tracer, note_rows, op_span
from .blocks import NestedQuery
from .optimizer import PlannerDecision
from .reduce import group_block

#: span name of the root execution span (carries the result cardinality)
ROOT_SPAN = "execute"


def run(
    query: NestedQuery, db: Database, decision: PlannerDecision
) -> Relation:
    """Evaluate *query* against *db* as *decision* says (the internal
    execution entry).

    *decision* is what :func:`~repro.core.optimizer.resolve` made of an
    execution request; :meth:`repro.session.PreparedQuery.execute`
    passes the one it resolved (and memoized) from the layered options.

    One path serves traced and untraced executions alike (the spans are
    None with tracing off): the decision's instance runs under the root
    ``execute`` span, and a governed one under a ``governor`` span with
    the limits; root-level ORDER BY/LIMIT apply last, ``rows_produced``
    is charged and the root's ``rows_out`` recorded.  A root span open
    on the tracer already is this execution's: a traced session
    execution opens it first, so that it also brackets the option
    layering and the resolution.  The governor is the ambient context's,
    installed by the session with the logic mode and the reduce cache.
    """
    governor = current_governor()
    try:
        if governor is not None:
            governor.start()
        checkpoint("plan")
        with _root_span() as root:
            if root is not None:
                root.attrs["strategy"] = decision.chosen
            if governor is None:
                result = decision.impl.execute(query, db)
            else:
                with op_span(
                    "governor", kind=KIND_GOVERNOR, **governor.describe_attrs()
                ):
                    result = decision.impl.execute(query, db)
            result = _finalize(result, query)
            current_metrics().add("rows_produced", len(result))
            note_rows(root, len(result))
        return result
    finally:
        # sweep this execution's private spill workspace (if any pass
        # created one) so a shared spill_dir ends every execution —
        # including aborted ones — as empty as it started
        if governor is not None:
            governor.cleanup_spill_workspace()


def _root_span():
    """A manager entering as this execution's root span: the one a
    traced session execution opened already (left open), else a new
    one (None with tracing off)."""
    tracer = current_tracer()
    if tracer is not None:
        innermost = tracer.innermost()
        if innermost is not None and innermost.kind == "root":
            return nullcontext(innermost)
    return op_span(ROOT_SPAN, kind="root")


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
