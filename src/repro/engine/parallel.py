"""The morsel scheduler of the columnar batch engine.

Every kernel of :mod:`repro.engine.vector` is written once, over *one
morsel* of its input: a contiguous probe-side row range for the join
family, filters and the uncorrelated link, a whole-group hash partition
for the fused nest-link.  A :class:`MorselScheduler` decides how many
morsels an input is cut into and where they run (morsel-driven
parallelism, Leis et al.):

* **one morsel** — ``threads=1``, or an input smaller than
  ``min_partition_rows`` — is a plain inline call of the kernel body:
  no pool, no ``morsel[i]`` span, no extra scope.  Sequential execution
  *is* parallel execution with one morsel;
* **several morsels** run on a process-wide thread pool.  Each morsel
  runs under a fork of the dispatching thread's
  :class:`~repro.engine.context.ExecutionContext` — the execution's
  governor, logic mode, reduce cache and spill depth, but its *own*
  metrics bundle and tracer; after the workers join, the scheduler
  merges the metric deltas into the caller's scope and grafts each
  morsel's span tree under the dispatching operator's span as
  ``kind="morsel"`` children — so EXPLAIN ANALYZE, the trace schema and
  the trace invariants (including exact Metrics reconciliation) hold at
  any thread count.

Morsels only compute positions and masks (matching pairs, predicate
truth, per-group verdicts); the dispatching operator assembles its
output once from their concatenation, so results are row-for-row
identical at every thread count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidArgumentError
from .context import ExecutionContext, current, scope
from .governor import checkpoint, maybe_worker_crash
from .metrics import current_metrics
from .trace import KIND_MORSEL, Span, op_span

#: an input is cut into at most ``rows // min_partition_rows`` morsels
DEFAULT_MIN_PARTITION_ROWS = 2048


def validate_threads(value, source: str = "threads") -> Optional[int]:
    """Validate a worker-count setting; returns the int (or None).

    Shared by every entry point that accepts a thread count
    (:func:`repro.connect`, ``--threads``, ``REPRO_THREADS``,
    ``set_threads``), so a bad value fails identically everywhere with
    :class:`~repro.errors.InvalidArgumentError` instead of being
    silently clamped.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise InvalidArgumentError(
            f"{source} must be an integer >= 1, got {value!r}"
        )
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            raise InvalidArgumentError(
                f"{source} must be an integer >= 1, got {value!r}"
            ) from None
    if not isinstance(value, int):
        raise InvalidArgumentError(
            f"{source} must be an integer >= 1, got {value!r}"
        )
    if value < 1:
        raise InvalidArgumentError(
            f"{source} must be >= 1, got {value}; pass 1 for sequential "
            f"execution"
        )
    return value


def default_threads() -> int:
    """The scheduler's default worker count: ``REPRO_THREADS`` env var
    if set, else ``os.cpu_count()``.

    A malformed ``REPRO_THREADS`` raises instead of silently falling
    back — a typo'd CI matrix entry must not quietly change the tested
    configuration.
    """
    env = os.environ.get("REPRO_THREADS")
    if env and env.strip():
        return validate_threads(env, "REPRO_THREADS")
    return os.cpu_count() or 1


def default_min_partition_rows() -> int:
    """The partitioning threshold: ``REPRO_MIN_PARTITION_ROWS`` env var
    if set (the fuzz CI job sets it to 1 so even tiny differential cases
    exercise the partitioned kernels), else
    :data:`DEFAULT_MIN_PARTITION_ROWS`."""
    env = os.environ.get("REPRO_MIN_PARTITION_ROWS")
    if env:
        try:
            return max(0, int(env))
        except ValueError:
            pass
    return DEFAULT_MIN_PARTITION_ROWS


# --------------------------------------------------------------------- #
# The shared worker pool
# --------------------------------------------------------------------- #

_pools: Dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    """A process-wide pool per width; morsels are pure (each installs its
    own forked context) so sharing across schedulers is safe."""
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-morsel"
            )
            _pools[workers] = pool
        return pool


def shutdown_pools() -> None:
    """Join and forget every pool, leaving this module thread-free: what
    a caller about to ``os.fork()`` needs.  Call it with no execution in
    flight in this process; the next multi-morsel round builds a new
    pool."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True)


def _forget_pools_after_fork() -> None:
    """In a forked child the pools' threads do not exist (a morsel
    submitted to one would never run) and the lock may have been copied
    held: start from a fresh lock and no pools."""
    global _pools, _pools_lock
    _pools = {}
    _pools_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools_after_fork)


class MorselScheduler:
    """Cuts an operator's input into morsels and runs them, isolating
    and re-merging their ambient metrics and trace spans.

    *threads* is the worker count; *min_partition_rows* the morsel size
    (an input of fewer rows stays one morsel).  One morsel — always the
    case at ``threads=1`` — is a plain inline call.
    """

    def __init__(
        self,
        threads: int = 1,
        min_partition_rows: Optional[int] = None,
    ):
        self.set_threads(threads)
        self.min_partition_rows = (
            min_partition_rows
            if min_partition_rows is not None
            else default_min_partition_rows()
        )

    def set_threads(self, threads: int) -> None:
        value = validate_threads(threads)
        if value is None:
            raise InvalidArgumentError(
                "threads must be an integer >= 1, got None"
            )
        self.threads = value

    # ------------------------------------------------------------------ #

    def partition_count(self, n_rows: int) -> int:
        """Number of morsels an *n_rows* input is cut into: at most one
        per worker, per ``min_partition_rows`` rows and per row."""
        fitting = n_rows // max(1, self.min_partition_rows)
        return max(1, min(self.threads, fitting))

    def slices(self, n_rows: int) -> List[Tuple[int, int]]:
        """Contiguous ``(lo, hi)`` row ranges covering ``range(n_rows)``,
        one per morsel (a single ``(0, n_rows)`` when the input stays
        whole, empty inputs included)."""
        n_parts = self.partition_count(n_rows)
        if n_parts <= 1:
            return [(0, n_rows)]
        bounds = np.linspace(0, n_rows, n_parts + 1).astype(np.int64)
        return [
            (int(bounds[i]), int(bounds[i + 1])) for i in range(n_parts)
        ]

    def map(
        self,
        body: Callable[[object, Optional[Span]], object],
        parts: Sequence[object],
        span: Optional[Span],
    ) -> List[object]:
        """``body(part, morsel_span)`` for every part, results in part
        order.

        A single part is a plain inline call in the caller's own scopes
        (``morsel_span`` is None).  Several parts run as morsels through
        :meth:`run`, and the dispatching operator's *span* records the
        ``threads`` / ``parts`` it fanned out to.
        """
        if len(parts) == 1:
            return [body(parts[0], None)]
        if span is not None:
            span.attrs["threads"] = self.threads
            span.attrs["parts"] = len(parts)
        return self.run([partial(body, part) for part in parts], span)

    def run(
        self,
        tasks: Sequence[Callable[[Optional[Span]], object]],
        parent: Optional[Span],
    ) -> List[object]:
        """Execute every task, one morsel each, and return their results
        in task order.

        Each task receives its (possibly ``None``) morsel span.  Metric
        deltas are merged into the caller's ambient scope and span trees
        are grafted under *parent* after all tasks complete.

        **Clean drain on failure**: a morsel that raises does not poison
        the pool — every submitted future still runs to completion, every
        morsel's metric deltas are merged and every (possibly aborted)
        span tree is grafted, and only *then* is the first error in task
        order re-raised.  That keeps partial traces structurally valid
        (aborted spans are skipped by the contract checks) and Metrics
        reconciliation exact even for failed or degraded executions.

        Every morsel runs under one :meth:`fork
        <repro.engine.context.ExecutionContext.fork>` of the dispatching
        thread's context (same governor, logic mode, reduce cache and
        spill depth; its own metrics and tracer) and passes a
        :func:`~repro.engine.governor.checkpoint` before doing work.
        """
        parent_context = current()

        def harness(
            index: int, task, pooled: bool
        ) -> Tuple[object, ExecutionContext, Optional[Exception]]:
            value: object = None
            err: Optional[Exception] = None
            with scope(parent_context.fork()) as fork:
                try:
                    if pooled:
                        maybe_worker_crash()
                    checkpoint("morsel")
                    with op_span(
                        f"morsel[{index}]", kind=KIND_MORSEL, part=index
                    ) as span:
                        value = task(span)
                except Exception as exc:
                    err = exc
            return value, fork, err

        if self.threads <= 1 or len(tasks) <= 1:
            outcomes = [harness(i, t, False) for i, t in enumerate(tasks)]
        else:
            pool = _pool(self.threads)
            futures = [
                pool.submit(harness, i, t, True) for i, t in enumerate(tasks)
            ]
            outcomes = [f.result() for f in futures]

        metrics = current_metrics()
        results: List[object] = []
        first_err: Optional[Exception] = None
        for value, fork, err in outcomes:
            for name, amount in fork.metrics.counters.items():
                metrics.add(name, amount)
            if parent is not None and fork.tracer is not None:
                parent.children.extend(fork.tracer.roots)
            if err is not None and first_err is None:
                first_err = err
            results.append(value)
        if first_err is not None:
            raise first_err
        return results


#: the scheduler of a kernel called without one: a single inline morsel
SEQUENTIAL = MorselScheduler(threads=1, min_partition_rows=0)
