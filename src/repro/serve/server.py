"""The multi-tenant asyncio query server.

Architecture — one event loop, one worker pool, zero shared-state
locks in the scheduler:

* **Connections** are plain asyncio streams speaking the minimal
  HTTP/1.1 of :mod:`repro.serve.http`.  Handlers parse a request and
  ``await`` :meth:`QueryServer.submit`.
* **Admission** happens synchronously on the event loop.  A submission
  is rejected *before any work is queued* when the server drains
  (:class:`~repro.errors.ServerDrainingError`), when the global queue
  is full (:class:`~repro.errors.ServerOverloadedError`), or when the
  tenant's own quota is exhausted
  (:class:`~repro.errors.TenantQuotaExceededError`) — so a rejected
  client can always retry safely.
* **Dispatch** is round-robin across tenants, not FIFO across
  requests: the scheduler cycles through the tenant ring and starts
  the head of the next tenant queue whose ``running`` count is below
  its ``max_concurrent``.  A tenant flooding 1000 requests therefore
  delays another tenant's single query by at most one quantum, not by
  1000 executions.
* **Execution** runs on a bounded :class:`ThreadPoolExecutor`.  Every
  request gets a fresh :class:`~repro.engine.governor.ResourceGovernor`
  built from the tenant's :class:`~repro.options.ExecutionOptions`
  (layered with per-request overrides), so timeouts, memory budgets,
  spill isolation and degradation accounting are all per-query.
  Sessions are pooled per tenant over ONE shared
  :class:`~repro.core.plancache.SessionCache` and
  :class:`~repro.core.feedback.FeedbackStore` — both thread-safe —
  so tenants share compiled plans, reduced builds and observed
  cardinalities.
* **Drain** (SIGTERM) lets admitted queries finish while new
  submissions are rejected; :meth:`drain` resolves when the system is
  idle, after which :meth:`stop` joins the pool and closes the
  listener — clean exit, no orphan threads.

All scheduler state (tenant queues, counters, the round-robin cursor)
is confined to the event-loop thread; worker threads communicate
results back via future callbacks that the loop runs.  That confinement
is the concurrency design: the only cross-thread structures are the
already-thread-safe cache, feedback store and governors.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.feedback import FeedbackStore
from ..core.plancache import SessionCache
from ..engine.catalog import Database
from ..engine.types import is_null
from ..errors import (
    AnalysisError,
    CatalogError,
    ExpressionError,
    InvalidArgumentError,
    ParseError,
    PlanError,
    QueryTimeoutError,
    ReproError,
    ResourceGovernanceError,
    SchemaError,
    ServerDrainingError,
    ServerOverloadedError,
    TenantQuotaExceededError,
    TypeError_,
)
from ..options import ExecutionOptions
from ..session import Session
from .http import (
    HttpRequest,
    ProtocolError,
    parse_query_body,
    read_request,
    response_bytes,
)
from .tenants import (
    DEFAULT_TENANT,
    TenantConfig,
    TenantState,
    resolve_tenant_config,
)

#: errors whose cause is the request itself -> HTTP 400
_CLIENT_ERRORS = (
    ParseError, AnalysisError, PlanError, InvalidArgumentError,
    SchemaError, TypeError_, ExpressionError, CatalogError,
)


def http_status_for(exc: BaseException) -> int:
    """Map a library error onto the HTTP status the server answers."""
    if isinstance(exc, (ServerOverloadedError, TenantQuotaExceededError)):
        return 429
    if isinstance(exc, ServerDrainingError):
        return 503
    if isinstance(exc, _CLIENT_ERRORS):
        return 400
    if isinstance(exc, QueryTimeoutError):
        return 504
    if isinstance(exc, ResourceGovernanceError):
        return 503
    return 500


def _json_value(value: Any) -> Any:
    """The encoder's ``default=`` hook, entered only for a cell that is
    not JSON-native: the NULL marker -> ``null``, anything else (a
    date, a numpy scalar) -> ``str``."""
    return None if is_null(value) else str(value)


@dataclass
class _Request:
    """One admitted query waiting for (or holding) a worker."""

    state: TenantState
    sql: str
    overrides: Dict[str, Any]
    future: "asyncio.Future[Dict[str, Any]]"
    governor: Optional[object] = None
    enqueued_at: float = field(default_factory=time.monotonic)


class QueryServer:
    """The serving façade: admission, fair dispatch, execution, stats.

    Usable embedded (tests drive :meth:`submit` directly) or as a
    network server via :meth:`start`.  All public coroutine methods
    must be called on the server's event loop.
    """

    def __init__(
        self,
        db: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        queue_size: int = 128,
        tenants: Optional[Dict[str, TenantConfig]] = None,
        default_tenant: Optional[TenantConfig] = None,
    ):
        if not isinstance(workers, int) or workers < 1:
            raise InvalidArgumentError(
                f"workers must be a positive integer, got {workers!r}"
            )
        if not isinstance(queue_size, int) or queue_size < 1:
            raise InvalidArgumentError(
                f"queue_size must be a positive integer, got {queue_size!r}"
            )
        self.db = db
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_size = queue_size
        self._configs = dict(tenants or {})
        self._default_config = default_tenant
        # one cache + one feedback store shared by every pooled session:
        # tenants share compiled plans and observed cardinalities
        self._cache = SessionCache(enabled=True)
        self._feedback = FeedbackStore()
        self._tenants: Dict[str, TenantState] = {}
        self._ring: List[str] = []
        self._rr = 0
        self._total_queued = 0
        self._active = 0
        self._draining = False
        self._started = time.monotonic()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._idle: Optional[asyncio.Event] = None
        # -- server-wide counters -------------------------------------- #
        self.requests_total = 0
        self.rejected_overload = 0
        self.rejected_draining = 0

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind the listener and start the worker pool."""
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # port 0 binds an ephemeral port; expose the real one
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Stop admitting; resolve once every admitted query finished.

        Idempotent: a second drain just awaits the same idle event.
        New submissions (including queued-up HTTP requests) are
        answered with :class:`~repro.errors.ServerDrainingError`.
        """
        self._draining = True
        assert self._idle is not None
        await self._idle.wait()

    async def stop(self) -> None:
        """Close the listener and join the worker pool (after drain)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------ #
    # admission + fair dispatch (event-loop thread only)
    # ------------------------------------------------------------------ #

    def _state(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            config = resolve_tenant_config(
                tenant, self._configs, self._default_config
            )
            session = Session(
                self.db,
                options=config.options,
                cache=self._cache,
                feedback=self._feedback,
            )
            state = TenantState(config, session)
            self._tenants[tenant] = state
            self._ring.append(tenant)
        return state

    async def submit(
        self,
        sql: str,
        tenant: str = DEFAULT_TENANT,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Admit, schedule and execute one query; return the payload.

        The payload is the ``POST /query`` response object — ``tenant``,
        ``columns``, ``rows``, ``row_count``, ``elapsed_ms`` — with
        ``rows`` still the engine's row tuples (NULL is the
        :data:`~repro.engine.types.NULL` marker, not ``None``), plus two
        keys that are not on the wire: ``body``, those five fields as
        the encoded JSON bytes the HTTP route answers with, and
        ``encode_ms``, what encoding them cost.  ``elapsed_ms`` is the
        worker's prepare + execute time: neither queueing nor encoding
        is in it.

        Raises the typed admission errors documented in the module
        docstring, or whatever :class:`~repro.errors.ReproError` the
        execution itself produced.
        """
        self.requests_total += 1
        if self._draining:
            self.rejected_draining += 1
            raise ServerDrainingError(
                "server is draining; retry against another instance"
            )
        state = self._state(tenant)
        if self._total_queued >= self.queue_size:
            self.rejected_overload += 1
            raise ServerOverloadedError(
                f"admission queue full ({self.queue_size} waiting); "
                f"retry after backoff"
            )
        if state.over_quota():
            state.rejected_quota += 1
            raise TenantQuotaExceededError(
                f"tenant {tenant!r} is at quota "
                f"({state.config.max_concurrent} running + "
                f"{state.config.max_queued} queued); retry after backoff"
            )
        loop = asyncio.get_running_loop()
        request = _Request(
            state=state,
            sql=sql,
            overrides=dict(overrides or {}),
            future=loop.create_future(),
        )
        state.queue.append(request)
        state.admitted += 1
        self._total_queued += 1
        assert self._idle is not None
        self._idle.clear()
        self._dispatch()
        return await request.future

    def _dispatch(self) -> None:
        """Start queued work while workers and quotas allow (RR)."""
        while self._active < self.workers:
            request = self._next_request()
            if request is None:
                return
            state = request.state
            state.running += 1
            self._active += 1
            self._total_queued -= 1
            loop = asyncio.get_running_loop()
            worker_future = loop.run_in_executor(
                self._pool, self._execute, request
            )
            worker_future.add_done_callback(
                lambda done, request=request: self._finish(request, done)
            )

    def _next_request(self) -> Optional[_Request]:
        """The next runnable request, scanning tenants round-robin.

        Starts at the cursor, takes the first tenant with queued work
        and spare concurrency, and leaves the cursor just past it — so
        consecutive grants rotate across tenants instead of draining
        one queue to exhaustion.
        """
        ring = self._ring
        for step in range(len(ring)):
            index = (self._rr + step) % len(ring)
            state = self._tenants[ring[index]]
            if state.queue and state.running < state.config.max_concurrent:
                self._rr = (index + 1) % len(ring)
                return state.queue.popleft()
        return None

    # ------------------------------------------------------------------ #
    # execution (worker threads)
    # ------------------------------------------------------------------ #

    def _execute(self, request: _Request) -> Dict[str, Any]:
        """Run one admitted query on a pooled session and encode its
        response (worker thread); :meth:`submit` documents the return."""
        state = request.state
        session = state.session
        started = time.monotonic()
        # build the per-request governor from the tenant's options
        # layered with the request overrides, and keep a handle on it:
        # the server cancels it on shutdown timeouts and harvests its
        # degradation/spill counters afterwards
        overrides = dict(request.overrides)
        governor = session.governor(
            overrides.get("timeout_ms"),
            overrides.get("memory_limit_mb"),
            overrides.get("degrade"),
        )
        request.governor = governor
        # `logic` has no per-call kwarg on execute(); it travels as an
        # options bundle through the same layering
        logic = overrides.pop("logic", None)
        options = ExecutionOptions(logic=logic) if logic is not None else None
        prepared = session.prepare(request.sql)
        result = prepared.execute(
            governor=governor, options=options, **overrides
        )
        encode_started = time.monotonic()
        payload = {
            "tenant": state.config.name,
            "columns": list(result.schema.names),
            "rows": result.rows,
            "row_count": len(result),
            "elapsed_ms": round((encode_started - started) * 1000.0, 3),
        }
        # one pass of the C encoder over the row tuples, here rather
        # than on the loop thread; see DESIGN §16 "Result egress"
        payload["body"] = json.dumps(
            payload, separators=(",", ":"), default=_json_value
        ).encode("utf-8")
        payload["encode_ms"] = (time.monotonic() - encode_started) * 1000.0
        return payload

    def _finish(self, request: _Request, done: "asyncio.Future") -> None:
        """Completion callback (event-loop thread): account + respond."""
        state = request.state
        state.running -= 1
        self._active -= 1
        exc = done.exception()
        governor = request.governor
        if governor is not None:
            state.degradations += len(governor.degradations)
            state.spills += governor.spill_count
        if exc is not None:
            state.failed += 1
            if not request.future.done():
                request.future.set_exception(exc)
        else:
            payload = done.result()
            state.completed += 1
            state.rows_returned += payload["row_count"]
            state.busy_ms += payload["elapsed_ms"]
            state.encode_ms += payload["encode_ms"]
            if not request.future.done():
                request.future.set_result(payload)
        self._dispatch()
        if self._active == 0 and self._total_queued == 0:
            assert self._idle is not None
            self._idle.set()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload (event-loop thread: consistent)."""
        return {
            "server": {
                "draining": self._draining,
                "workers": self.workers,
                "queue_size": self.queue_size,
                "queued": self._total_queued,
                "active": self._active,
                "requests": self.requests_total,
                "rejected_overload": self.rejected_overload,
                "rejected_draining": self.rejected_draining,
                "uptime_ms": round(
                    (time.monotonic() - self._started) * 1000.0, 1
                ),
            },
            "cache": self._cache.stats_snapshot(),
            "feedback": {
                "observations": len(self._feedback),
                "epoch": self._feedback.epoch,
            },
            "tenants": {
                name: self._tenants[name].snapshot() for name in self._ring
            },
        }

    # ------------------------------------------------------------------ #
    # HTTP front-end
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(response_bytes(
                        exc.status,
                        {"error": {"type": "ProtocolError",
                                   "message": str(exc)}},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if request is None:
                    return
                status, payload = await self._route(request)
                keep = request.keep_alive and status < 500
                writer.write(response_bytes(status, payload, keep))
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(self, request: HttpRequest):
        """Dispatch one HTTP request to (status, payload): a JSON-able
        object, or for a ``/query`` 200 the body bytes the worker
        already encoded.

        ``POST /query`` answers ``{"tenant", "columns", "rows",
        "row_count", "elapsed_ms"}``, SQL NULL as ``null``.
        ``elapsed_ms`` is the worker's prepare + execute time; queueing,
        encoding the rows and the socket are not in it.  ``/stats``
        totals it per tenant as ``busy_ms``, and the encoding time
        beside it as ``encode_ms``.
        """
        if request.path == "/health":
            if request.method != "GET":
                return 405, {"error": {"type": "ProtocolError",
                                       "message": "GET only"}}
            status = "draining" if self._draining else "ok"
            return (503 if self._draining else 200), {"status": status}
        if request.path == "/stats":
            if request.method != "GET":
                return 405, {"error": {"type": "ProtocolError",
                                       "message": "GET only"}}
            return 200, self.stats()
        if request.path == "/query":
            if request.method != "POST":
                return 405, {"error": {"type": "ProtocolError",
                                       "message": "POST only"}}
            try:
                sql, tenant, overrides = parse_query_body(request.json())
            except ProtocolError as exc:
                return exc.status, {"error": {"type": "ProtocolError",
                                              "message": str(exc)}}
            try:
                payload = await self.submit(sql, tenant, overrides)
                return 200, payload["body"]
            except ReproError as exc:
                return http_status_for(exc), {
                    "error": {"type": type(exc).__name__,
                              "message": str(exc)},
                }
            except Exception as exc:  # never leak a traceback as a hang
                return 500, {
                    "error": {"type": type(exc).__name__,
                              "message": str(exc)},
                }
        return 404, {"error": {"type": "ProtocolError",
                               "message": f"no route {request.path!r}"}}


async def run_server(
    server: QueryServer, shutdown: Optional[asyncio.Event] = None
) -> None:
    """Start *server*, serve until *shutdown* (or forever), then drain.

    The CLI wires SIGTERM/SIGINT to the *shutdown* event, giving the
    documented graceful exit: in-flight queries finish, new ones are
    rejected, the pool joins, the listener closes.
    """
    await server.start()
    try:
        if shutdown is None:
            shutdown = asyncio.Event()
        await shutdown.wait()
        await server.drain()
    finally:
        await server.stop()
