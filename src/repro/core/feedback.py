"""EXPLAIN's feedback loop: observed cardinalities per plan.

Every traced execution produces a span tree whose ``reduce[T{i}]``
phase spans carry the *actual* reduced-block cardinalities and whose
root ``execute`` span carries the actual result size.  A per-session
:class:`FeedbackStore` records those observations keyed by
``(plan fingerprint, span name)``; the next ``"auto"`` EXPLAIN of the
same plan replaces its estimated block cardinalities with the observed
ones (:class:`~repro.core.stats.PlanStats` ``overrides``), so its
``est_rows`` is grounded in what ran rather than in independence
heuristics.  Which strategy runs never depends on it.

``epoch`` increments whenever an observation is added or changed; a
:class:`~repro.core.plan.Plan` records the epoch its estimate used.
"""

from __future__ import annotations

import re
import threading
from typing import Dict, List, Optional, Tuple

from ..engine.trace import KIND_GOVERNOR

#: span name of the root execution span (carries the result cardinality)
ROOT_SPAN = "execute"
_REDUCE_RE = re.compile(r"^reduce\[T(\d+)\]$")


class FeedbackStore:
    """Observed (plan fingerprint, operator) -> row-count map.

    One per :class:`~repro.session.Session` — or, under
    :mod:`repro.serve`, one per worker *process*, shared by the sessions
    of every tenant that worker serves (``/stats`` sums the workers'
    stores; none crosses a process).  Observation is additive and
    idempotent: re-observing identical cardinalities leaves the
    :attr:`epoch` unchanged.

    Thread-safe, for an embedder's own thread pool over one session
    (the store is harvested after the execution): the check-then-set in
    :meth:`record` (and the epoch bump it guards) runs under a lock, so
    concurrent traced runs never lose observations or epoch increments;
    lookups copy under the same lock so an estimate reads a consistent
    snapshot.
    """

    def __init__(self) -> None:
        self._observations: Dict[Tuple[str, str], int] = {}
        self._epoch = 0
        self._lock = threading.Lock()

    @property
    def epoch(self) -> int:
        """Bumped whenever an observation is added or changes."""
        return self._epoch

    def __len__(self) -> int:
        return len(self._observations)

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def record(self, fingerprint: str, span_name: str, rows: int) -> None:
        """Record one observed cardinality (``observe`` is the bulk API)."""
        self._record_all(fingerprint, [(span_name, rows)])

    def _record_all(
        self, fingerprint: str, observed: List[Tuple[str, int]]
    ) -> None:
        """Record ``(span name, rows)`` pairs in order, under one lock."""
        with self._lock:
            for span_name, rows in observed:
                key = (fingerprint, span_name)
                if self._observations.get(key) != rows:
                    self._observations[key] = rows
                    self._epoch += 1

    def observe(self, fingerprint: str, trace) -> int:
        """Harvest a :class:`~repro.engine.trace.Trace` span tree.

        Records the root span's ``rows_out`` (result cardinality) and
        every ``reduce[T{i}]`` phase span's ``rows_out`` (reduced block
        cardinalities — the quantities the estimator guesses at).
        Aborted spans are skipped: their counters describe partial
        work.  Returns the number of observations recorded.

        Only the spans :func:`repro.core.planner.run` can put a reduce
        phase under are read — each root and its children, and the
        children of a root's ``governor`` span — not the operators
        below them.
        """
        observed: List[Tuple[str, int]] = []
        for root in trace.roots:
            if root.kind == "root" and root.name == ROOT_SPAN:
                _harvest(root, ROOT_SPAN, observed)
            for child in root.children:
                for span in (
                    child.children if child.kind == KIND_GOVERNOR else (child,)
                ):
                    if span.kind == "phase" and _REDUCE_RE.match(span.name):
                        _harvest(span, span.name, observed)
        self._record_all(fingerprint, observed)
        return len(observed)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #

    def block_overrides(self, fingerprint: str) -> Dict[int, int]:
        """Observed reduced-block cardinalities: block index -> rows."""
        out: Dict[int, int] = {}
        with self._lock:
            items = list(self._observations.items())
        for (fp, name), rows in items:
            if fp != fingerprint:
                continue
            match = _REDUCE_RE.match(name)
            if match:
                out[int(match.group(1))] = rows
        return out

    def out_rows(self, fingerprint: str) -> Optional[int]:
        """The observed result cardinality of this plan, if any."""
        with self._lock:
            return self._observations.get((fingerprint, ROOT_SPAN))

    def observations(self, fingerprint: str) -> Dict[str, int]:
        """Every observation recorded for this plan (span name -> rows)."""
        with self._lock:
            items = list(self._observations.items())
        return {name: rows for (fp, name), rows in items if fp == fingerprint}

    def clear(self) -> None:
        """Forget everything (bumps the epoch if anything was stored)."""
        with self._lock:
            if self._observations:
                self._observations.clear()
                self._epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeedbackStore(epoch={self._epoch}, "
            f"observations={len(self._observations)})"
        )


def _harvest(span, name: str, observed: List[Tuple[str, int]]) -> None:
    """Append *span*'s ``rows_out`` under *name* unless it was aborted or
    counted nothing."""
    if not span.aborted and "rows_out" in span.counters:
        observed.append((name, span.counters["rows_out"]))
