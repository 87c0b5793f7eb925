"""Resource governance: deadlines, memory budgets, cooperative cancellation.

The engine's operators are pure and uninterruptible from the outside —
Algorithm 1 guarantees a correct answer only if every operator runs to
completion.  A serving layer needs the complement: *bounded* execution
that can be timed out, cancelled, or capped on memory, and whose
spilling paths still honor the pk-NULL convention and Kleene 3VL
semantics (the rewrites that *A Formalisation of SQL with Nulls* shows
are so easy to break are never re-derived here — a governed execution
runs the same plan, or fails with a typed error).

One :class:`ResourceGovernor` governs one execution.  It carries

* a **deadline** (``timeout_ms``, armed by :meth:`start`),
* a **cooperative cancellation token** (:meth:`cancel`, callable from
  another thread),
* a **memory budget** (``memory_limit_mb``) fed by accounting hooks in
  the hash-join builds, nest grouping and batch materialization
  (:func:`charge_batch` / :func:`charge_rows` — the same observed
  row/byte figures the :mod:`~repro.engine.metrics` counters record).

All three limits are checked at *operator boundaries* via
:func:`checkpoint`; a breach raises the typed
:class:`~repro.errors.QueryTimeoutError` /
:class:`~repro.errors.ResourceExhaustedError` /
:class:`~repro.errors.QueryCancelledError`.  The governor is the
``governor`` field of the ambient
:class:`~repro.engine.context.ExecutionContext` (:func:`governed` /
:func:`current_governor`).

Fault injection
---------------

``REPRO_FAULT`` selects a deliberate failure mode that tests, the
fuzzer and the CI fault-injection job use to exercise every governed
failure path:

* ``slow_checkpoint`` — every checkpoint sleeps ``REPRO_FAULT_MS``
  milliseconds (default 20) before checking, making any plan
  deliberately slow so deadline tests are deterministic.
* ``alloc_spike`` — every checkpoint under a memory-limited governor
  charges the whole budget at once, tripping
  :class:`~repro.errors.ResourceExhaustedError` on the next check.
* ``spill_io`` — every spill-partition write raises
  :class:`~repro.errors.SpillError`, exercising the spill paths'
  governed cleanup (temp files removed, typed error surfaced).

Spilling
--------

When a governor carries *both* a memory budget and a ``spill_dir``, the
budget stops being a hard failure at the two memory cliffs (hash-join
build, nest grouping): the spill-aware kernels ask
:meth:`ResourceGovernor.should_spill` before materializing and divert
to Grace-style disk partitions (:mod:`repro.engine.spill`) when the
estimate would breach the budget.  Without a ``spill_dir`` the budget
keeps its original error semantics unchanged.
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading
import time
from typing import Any, ContextManager, Dict, Optional

from ..errors import (
    InvalidArgumentError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
    SpillError,
)
from .context import UNRESOLVED_FAULT, ExecutionContext, current, scope

#: accepted values of the ``REPRO_FAULT`` environment variable
FAULT_MODES = ("slow_checkpoint", "alloc_spike", "spill_io")

#: rough per-value cost of a Python-object row cell, used by the row
#: backend's accounting (the vector backend measures array bytes).
EST_BYTES_PER_VALUE = 48

#: process-wide monotonic counter naming per-execution spill workspaces;
#: combined with the pid it makes workspace names unique even when many
#: processes (and, within one, many concurrent executions) share a
#: configured ``spill_dir``.  ``itertools.count`` is atomic in CPython.
_workspace_ids = itertools.count(1)


def _positive(value, name: str, unit: str):
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgumentError(
            f"{name} must be a positive number of {unit}, got {value!r}"
        )
    if value <= 0:
        raise InvalidArgumentError(
            f"{name} must be > 0 ({unit}); got {value!r} — omit it (None) "
            f"to run ungoverned"
        )
    return value


class ResourceGovernor:
    """Per-execution deadline + memory budget + cancellation token.

    Thread-safe: a server may :meth:`cancel` an execution from another
    thread than the one running it.  Re-usable: each
    :meth:`start` re-arms the deadline and zeroes the accounted bytes,
    so a session-level governor template can be executed repeatedly
    (the Session API builds a fresh one per call anyway).
    """

    def __init__(
        self,
        timeout_ms: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        spill_dir: Optional[str] = None,
    ):
        self.timeout_ms = _positive(timeout_ms, "timeout_ms", "milliseconds")
        limit = _positive(memory_limit_mb, "memory_limit_mb", "megabytes")
        self.memory_limit_bytes: Optional[int] = (
            None if limit is None else int(limit * 1024 * 1024)
        )
        if spill_dir is not None and not isinstance(spill_dir, str):
            raise InvalidArgumentError(
                f"spill_dir must be a directory path or None, got {spill_dir!r}"
            )
        #: directory for spill partitions; setting it (together with a
        #: memory budget) turns budget breaches at the spillable
        #: operators into spills instead of errors
        self.spill_dir = spill_dir
        self._workspace: Optional[str] = None
        self._lock = threading.Lock()
        self._cancelled = threading.Event()
        self._deadline: Optional[float] = None
        self._reserved = 0
        self._peak = 0
        self.spilled_bytes = 0
        self.spill_count = 0
        if self.timeout_ms is not None:
            self.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ResourceGovernor":
        """(Re-)arm the deadline and zero the memory account."""
        with self._lock:
            self._deadline = (
                None
                if self.timeout_ms is None
                else time.monotonic() + self.timeout_ms / 1000.0
            )
            self._reserved = 0
            self.spilled_bytes = 0
            self.spill_count = 0
        return self

    def cancel(self) -> None:
        """Trip the cancellation token (callable from any thread)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def reserved_bytes(self) -> int:
        return self._reserved

    @property
    def peak_bytes(self) -> int:
        return self._peak

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline, or None when unbounded."""
        if self._deadline is None:
            return None
        return (self._deadline - time.monotonic()) * 1000.0

    # ------------------------------------------------------------------ #
    # the checks
    # ------------------------------------------------------------------ #

    def check(self, site: str = "operator") -> None:
        """Raise the typed governance error for any tripped limit."""
        if self._cancelled.is_set():
            raise QueryCancelledError(
                f"query cancelled (checked at {site} boundary)"
            )
        deadline = self._deadline
        if deadline is not None and time.monotonic() > deadline:
            raise QueryTimeoutError(
                f"query exceeded timeout_ms={self.timeout_ms:g} "
                f"(checked at {site} boundary)"
            )
        limit = self.memory_limit_bytes
        if limit is not None and self._reserved > limit:
            self._raise_exhausted(site)

    def charge(self, n_bytes: int, what: str = "allocation") -> None:
        """Account *n_bytes* of observed allocation; raise on breach.

        The account is cumulative over one execution — a cheap, monotone
        over-approximation of peak usage that never misses a runaway
        build (operators materialize their outputs, so sustained growth
        is exactly what the counter sees).
        """
        if n_bytes <= 0:
            return
        with self._lock:
            self._reserved += int(n_bytes)
            if self._reserved > self._peak:
                self._peak = self._reserved
        limit = self.memory_limit_bytes
        if limit is not None and self._reserved > limit:
            self._raise_exhausted(what)

    def release(self, n_bytes: int) -> None:
        """Return *n_bytes* to the budget (spilled data left the heap).

        Peak accounting is untouched — ``peak_bytes`` stays the honest
        high-water mark; only the live reservation shrinks, which is
        what lets a spilling operator process partitions one at a time
        under a budget smaller than its total input.
        """
        if n_bytes <= 0:
            return
        with self._lock:
            self._reserved = max(0, self._reserved - int(n_bytes))

    def should_spill(self, est_bytes: int) -> bool:
        """Whether a pending *est_bytes* materialization must spill.

        True only when spilling is enabled (both ``spill_dir`` and a
        memory budget are set) and the estimate would push the live
        reservation over the budget.  Callers check this *before*
        charging, so the non-spilling path's semantics are unchanged.
        """
        limit = self.memory_limit_bytes
        if self.spill_dir is None or limit is None:
            return False
        return self._reserved + int(est_bytes) > limit

    def record_spill(self, n_bytes: int) -> None:
        """Account one spill pass (bytes written to temp column files)."""
        with self._lock:
            self.spilled_bytes += int(n_bytes)
            self.spill_count += 1

    def spill_workspace(self) -> str:
        """This execution's private spill directory (created lazily).

        Concurrent executions may share one configured ``spill_dir`` (a
        server points every tenant at the same scratch volume); each
        execution gets its own ``exec-<pid>-<n>/`` subdirectory so
        partition files from different queries can never collide.  The
        planner removes the whole subtree when the execution ends
        (:meth:`cleanup_spill_workspace`), crash or not.
        """
        if self.spill_dir is None:  # pragma: no cover - callers gate on it
            raise InvalidArgumentError(
                "spill_workspace() requires a spill_dir"
            )
        with self._lock:
            if self._workspace is None:
                name = f"exec-{os.getpid()}-{next(_workspace_ids)}"
                path = os.path.join(self.spill_dir, name)
                os.makedirs(path, exist_ok=True)
                self._workspace = path
            return self._workspace

    def cleanup_spill_workspace(self) -> None:
        """Remove this execution's spill subtree (idempotent, best-effort).

        Interior spill passes already delete their own partition files;
        this sweep guarantees the shared ``spill_dir`` ends every
        execution as empty as it started even if a pass aborted between
        creating its temp directory and its ``finally``.
        """
        with self._lock:
            path, self._workspace = self._workspace, None
        if path is not None:
            shutil.rmtree(path, ignore_errors=True)

    def _raise_exhausted(self, what: str) -> None:
        limit = self.memory_limit_bytes or 0
        raise ResourceExhaustedError(
            f"memory budget exceeded at {what}: ~{self._reserved} bytes "
            f"accounted > memory_limit_mb={limit / (1024 * 1024):g}"
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def describe_attrs(self) -> Dict[str, Any]:
        """The span attributes a governed execution is tagged with."""
        attrs: Dict[str, Any] = {}
        if self.timeout_ms is not None:
            attrs["timeout_ms"] = self.timeout_ms
        if self.memory_limit_bytes is not None:
            attrs["memory_limit_mb"] = self.memory_limit_bytes // (1024 * 1024)
        if self.spill_dir is not None:
            attrs["spill_dir"] = self.spill_dir
        return attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.describe_attrs().items())
        return f"ResourceGovernor({inner})"


# --------------------------------------------------------------------- #
# Ambient scope (the ``governor`` field of the execution context)
# --------------------------------------------------------------------- #


def current_governor() -> Optional[ResourceGovernor]:
    """The governor of the running execution, or None (ungoverned)."""
    return current().governor


def governed(
    governor: Optional[ResourceGovernor],
) -> ContextManager[ExecutionContext]:
    """Install *governor* as the ambient governor for a block.

    ``None`` keeps the enclosing governor, so call sites need no
    conditional.
    """
    return scope(governor=governor or current().governor)


# --------------------------------------------------------------------- #
# Fault injection (REPRO_FAULT)
# --------------------------------------------------------------------- #


def active_fault() -> Optional[str]:
    """The fault mode selected by ``REPRO_FAULT``, or None.

    Unknown values raise :class:`InvalidArgumentError` rather than
    silently running fault-free — a typo'd CI matrix entry must fail
    loudly, not pass vacuously.
    """
    value = os.environ.get("REPRO_FAULT", "").strip()
    if not value:
        return None
    if value not in FAULT_MODES:
        raise InvalidArgumentError(
            f"unknown REPRO_FAULT mode {value!r}; expected one of {FAULT_MODES}"
        )
    return value


def fault_sleep_seconds() -> float:
    """The ``slow_checkpoint`` per-checkpoint sleep (``REPRO_FAULT_MS``)."""
    env = os.environ.get("REPRO_FAULT_MS")
    if env:
        try:
            return max(0.0, float(env)) / 1000.0
        except ValueError:
            pass
    return 0.020


def context_fault(context: ExecutionContext) -> Optional[str]:
    """The fault mode of *context*: its execution's, resolved once when
    the execution began, or :func:`active_fault` outside any."""
    fault = context.fault
    return active_fault() if fault is UNRESOLVED_FAULT else fault


def maybe_spill_io_failure() -> None:
    """Raise the injected write failure when ``REPRO_FAULT=spill_io``.

    Called by the spill paths immediately before each partition write,
    so the failure lands mid-spill with temp files already on disk —
    exactly the state whose cleanup the injection is meant to prove.
    The mode is the execution's (:func:`context_fault`).
    """
    if context_fault(current()) == "spill_io":
        raise SpillError(
            "injected spill write failure (REPRO_FAULT=spill_io)"
        )


def checkpoint(site: str = "operator") -> None:
    """The cooperative boundary check every operator passes.

    Applies the active fault (sleep / allocation spike) *first*, then
    checks the ambient governor — so an injected slowdown is observed by
    the very next deadline check, keeping timeout overshoot bounded by
    one checkpoint interval.  Ungoverned, fault-free executions pay one
    context read: the fault mode is the execution's
    (:func:`context_fault`).
    """
    context = current()
    fault = context_fault(context)
    governor = context.governor
    if fault == "slow_checkpoint":
        time.sleep(fault_sleep_seconds())
    elif (
        fault == "alloc_spike"
        and governor is not None
        and governor.memory_limit_bytes is not None
    ):
        governor.charge(
            governor.memory_limit_bytes + 1,
            "injected allocation spike (REPRO_FAULT=alloc_spike)",
        )
    if governor is not None:
        governor.check(site)


# --------------------------------------------------------------------- #
# Accounting hooks (called from the kernels; no-ops when ungoverned)
# --------------------------------------------------------------------- #


def _is_mapped(arr) -> bool:
    """Whether *arr* is (a view into) a live memory mapping.

    The array's *type* does not say: numpy hands back ``np.memmap``-typed
    arrays that own heap memory (``np.take(mm, idx)``, ``mm.astype(...)``
    — their ``_mmap`` is None), and a plain ``ndarray`` view can sit on a
    mapping.  So the walk looks for an open ``_mmap`` along the ``.base``
    chain.
    """
    seen = 0
    while arr is not None and seen < 8:
        if getattr(arr, "_mmap", None) is not None:
            return True
        arr = getattr(arr, "base", None)
        seen += 1
    return False


def batch_nbytes(batch) -> int:
    """Observed *heap* bytes of a columnar :class:`~...vector.batch.Batch`.

    Memory-mapped columns (stored tables and their slices) are excluded:
    the OS pages them in and out against file storage, so counting them
    against the RAM budget would make every stored scan "exhaust" a cap
    smaller than the dataset — the exact situation the store exists for.

    A deferred column (:func:`~...vector.column.take_columns`) is billed
    the bytes its gather will allocate, without gathering it: a
    gather's output is heap memory whatever its source, so the charge is
    the one the materialized column draws.
    """
    total = 0
    for column in batch.columns:
        pending = column.pending_nbytes()
        if pending is not None:
            total += pending
            continue
        # A mapped data array marks the whole vector as stored; its
        # unpacked validity mask (1 byte/row) rides along for free.
        if _is_mapped(column.data):
            continue
        total += int(getattr(column.data, "nbytes", 0))
        if not _is_mapped(column.valid):
            total += int(getattr(column.valid, "nbytes", 0))
    return total


def charge_batch(batch, what: str = "batch materialization") -> None:
    """Account a materialized batch against the ambient budget."""
    governor = current_governor()
    if governor is None or governor.memory_limit_bytes is None:
        return
    governor.charge(batch_nbytes(batch), what)


def charge_rows(n_rows: int, width: int, what: str = "build") -> None:
    """Account *n_rows* × *width* row-engine values against the budget."""
    governor = current_governor()
    if governor is None or governor.memory_limit_bytes is None:
        return
    governor.charge(n_rows * max(1, width) * EST_BYTES_PER_VALUE, what)
