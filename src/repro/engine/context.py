"""The execution context: every piece of ambient state, in one slot.

An execution is sound only if *every* operator of it evaluates under
the same logic mode, charges the same governor and reports into the
right metrics scope and tracer.  All of that state is the eight fields
of one immutable :class:`ExecutionContext` held in one
:class:`~contextvars.ContextVar`; nothing else in the package is ambient
(``tests/engine/test_context.py`` fails when a second slot appears).

* :func:`current` reads the context — one ``ContextVar.get()``, no
  allocation, cheap enough for the per-comparison and per-operator
  readers (``two_valued()``, ``checkpoint()``).
* ``fault`` is the ``REPRO_FAULT`` mode, read from the environment
  once per execution (``PreparedQuery._run``), not at every checkpoint.
  A context no execution installed holds :data:`UNRESOLVED_FAULT`, and
  its readers (``checkpoint()``, ``maybe_spill_io_failure()``) read the
  environment themselves.
* :func:`scope` replaces fields for the duration of a block and
  restores the previous context on exit; the accessors in
  :mod:`.metrics`, :mod:`.trace`, :mod:`.governor` and :mod:`.logic`
  (``collect()``, ``tracing()``, ``governed()``, ``logic_mode()``) are
  one-line calls of it.

An execution runs on the thread that called it, start to finish, so the
one ``ContextVar`` is all the ambient state it reads.

This module imports nothing from the package at import time, so every
engine module may depend on it.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from .governor import ResourceGovernor
    from .metrics import Metrics
    from .trace import Tracer


#: the ``fault`` of a context no execution installed: the fault mode is
#: read from ``REPRO_FAULT`` where it is needed
UNRESOLVED_FAULT = "unresolved"


class ExecutionContext(NamedTuple):
    """The ambient state of one execution (immutable)."""

    #: counter bundle operators charge to; None = the process-wide
    #: default bundle of :func:`~repro.engine.metrics.current_metrics`
    metrics: Optional["Metrics"] = None
    #: span-tree builder, or None when tracing is off
    tracer: Optional["Tracer"] = None
    #: deadline / memory budget / cancellation token, or None (ungoverned)
    governor: Optional["ResourceGovernor"] = None
    #: predicate semantics, ``"3vl"`` or ``"2vl"``
    logic: str = "3vl"
    #: the session cache reduced-relation builds are memoized in, or None
    reduce_cache: Optional[Any] = None
    #: the plan slot of the decision being executed
    #: (:class:`~repro.core.plancache.PlanMemo`), or None: plan per call
    plan_memo: Optional[Any] = None
    #: nesting level of the enclosing Grace spill passes
    spill_depth: int = 0
    #: the execution's ``REPRO_FAULT`` mode (None: fault-free), or
    #: :data:`UNRESOLVED_FAULT` outside any execution
    fault: Optional[str] = UNRESOLVED_FAULT


_current: ContextVar[ExecutionContext] = ContextVar(
    "repro_execution_context", default=ExecutionContext()
)

#: the calling thread's :class:`ExecutionContext` (the bound
#: ``ContextVar.get``: reading a field costs one C call and one
#: attribute load)
current = _current.get


class scope:
    """Run a block under the current context with *fields* replaced,
    yielding the installed context; the previous context is restored on
    exit.  A plain context-manager class rather than a generator: every
    execution enters two of these, and a generator's frame is what such
    an entry mostly costs."""

    __slots__ = ("_fields", "_token")

    def __init__(self, **fields: Any):
        self._fields = fields

    def __enter__(self) -> ExecutionContext:
        context = _current.get()._replace(**self._fields)
        self._token = _current.set(context)
        return context

    def __exit__(self, *exc_info: Any) -> None:
        _current.reset(self._token)
