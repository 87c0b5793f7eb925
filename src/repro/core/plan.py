"""The typed EXPLAIN result: a :class:`Plan` you can render or inspect.

:meth:`repro.session.PreparedQuery.explain` returns a :class:`Plan`
instead of bare text: the requested strategy, the strategy that would
actually run, the estimated result cardinality (when the request was
``"auto"``), the operator-tree text, and — with ``analyze=True`` — the
annotated span tree of a real execution.

``str(plan)`` and ``plan.render()`` give the human-readable text the
CLI and the golden files use; ``plan.render(format="json")`` gives a
stable machine-readable document (the estimate, plus the serialized
trace when analyzed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..errors import InvalidArgumentError
from .feedback import FeedbackStore
from .optimizer import PlannerDecision, plan_fingerprint
from .stats import PlanStats, collect_stats

#: formats accepted by :meth:`Plan.render`
PLAN_FORMATS = ("text", "json")


@dataclass(frozen=True)
class Plan:
    """One EXPLAIN outcome, ready to render in either format.

    ``strategy`` is what the caller asked for (``"auto"`` or a fixed
    name); ``chosen`` is the name the execution's root span carries —
    both come from the one :class:`~repro.core.optimizer.PlannerDecision`
    an execution under the same options runs.  For an ``"auto"``
    request ``est_rows`` is the estimated result cardinality
    (:class:`~repro.core.stats.PlanStats`), with the plan
    ``fingerprint`` and the ``feedback_epoch`` whose observations it
    used; for a fixed strategy they are ``None``.
    ``analysis`` is the EXPLAIN ANALYZE text and ``spans`` the
    serialized trace document, both present only under
    ``analyze=True``.
    """

    sql: str
    strategy: str
    chosen: str
    operators: str
    fingerprint: Optional[str] = None
    feedback_epoch: Optional[int] = None
    est_rows: Optional[float] = None
    analysis: Optional[str] = None
    spans: Optional[Dict[str, Any]] = None

    def render(self, format: str = "text") -> str:
        """The plan as ``"text"`` (human-readable, golden-file stable
        modulo timings) or ``"json"`` (machine-readable, sorted keys)."""
        if format == "text":
            return self._render_text()
        if format == "json":
            return json.dumps(self.to_dict(), indent=2, sort_keys=True)
        raise InvalidArgumentError(
            f"unknown plan format {format!r}; expected one of {PLAN_FORMATS}"
        )

    def _render_text(self) -> str:
        sections = [self.operators]
        if self.strategy == "auto":
            sections.insert(0, f"auto -> {self.chosen}")
        if self.analysis is not None:
            sections.append(self.analysis)
        return "\n\n".join(sections)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-document form of :meth:`render`\\ ``("json")``."""
        doc: Dict[str, Any] = {
            "sql": self.sql,
            "strategy": self.strategy,
            "chosen": self.chosen,
            "operators": self.operators.splitlines(),
        }
        if self.fingerprint is not None:
            doc["fingerprint"] = self.fingerprint
            doc["feedback_epoch"] = self.feedback_epoch
        if self.est_rows is not None:
            doc["est_rows"] = round(self.est_rows, 1)
        if self.analysis is not None:
            doc["analysis"] = self.analysis.splitlines()
        if self.spans is not None:
            doc["spans"] = self.spans
        return doc

    @classmethod
    def of(
        cls,
        sql: str,
        requested,
        decision: PlannerDecision,
        query,
        db,
        feedback: FeedbackStore,
    ) -> "Plan":
        """The plan of *decision*, what the session resolved *requested*
        to: the operator text is drawn by the instance that runs.  An
        ``"auto"`` request also gets the estimated result cardinality,
        with *feedback*'s observed block cardinalities in place of the
        estimates it has them for."""
        from .explain import plan_text

        fingerprint = epoch = est_rows = None
        if requested == "auto":
            fingerprint = plan_fingerprint(query)
            epoch = feedback.epoch
            est_rows = PlanStats(
                query, collect_stats(db),
                overrides=feedback.block_overrides(fingerprint),
            ).out_rows
        return cls(
            sql=sql,
            strategy=requested if isinstance(requested, str) else decision.chosen,
            chosen=decision.chosen,
            operators=plan_text(decision, query, db),
            fingerprint=fingerprint,
            feedback_epoch=epoch,
            est_rows=est_rows,
        )

    def analyzed(self, result, trace, metrics, timings: bool = True) -> "Plan":
        """This plan with the EXPLAIN ANALYZE section of one traced
        execution: one line per operator span with input/output row
        counts, operator-specific counters (hash-table sizes, peak group
        cardinality, null-padded rows, ...) and, unless *timings* is
        False (deterministic golden files), inclusive wall-clock times.
        *metrics* is the :class:`~repro.engine.metrics.Metrics` collected
        around that execution."""
        from ..engine.trace import render_trace

        analysis = "\n".join(
            [
                f"EXPLAIN ANALYZE (strategy={self.strategy})",
                render_trace(trace, timings=timings),
                f"{len(result)} row(s); "
                f"weighted cost {metrics.weighted_cost()}",
            ]
        )
        return replace(self, analysis=analysis, spans=trace.to_dict())

    def __str__(self) -> str:
        return self.render("text")

    def __contains__(self, needle: object) -> bool:
        # substring checks against the text render keep working for
        # callers that treated explain() output as a string
        return isinstance(needle, str) and needle in self.render("text")
