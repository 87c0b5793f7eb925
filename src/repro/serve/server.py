"""The multi-tenant asyncio query server.

Architecture — one event-loop process in front, ``workers`` forked
worker processes behind it, zero shared-state locks in the scheduler:

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
* **Execution** runs in the worker processes
  (:mod:`repro.serve.worker`), forked by :meth:`QueryServer.start`
  before the listener is bound, each over one ``socket.socketpair()``.
  Threads of one process share one interpreter lock, so executions on
  them take turns; each process has its own and runs a request at its
  in-process speed.  A worker inherits the :class:`~repro.engine.catalog.Database` from the
  fork (an in-RAM database by copy-on-write, a column store by its
  mmap pages) and owns everything else an execution touches: sessions,
  plan cache and a fresh
  :class:`~repro.engine.governor.ResourceGovernor` per request built
  from the tenant's :class:`~repro.options.ExecutionOptions` layered
  with the request overrides.  The front writes a request frame to an
  idle worker and awaits the reply: a small pickled header and the
  response body as the bytes the HTTP route answers with — rows never
  exist as Python objects in the front.
* **A worker that dies** fails its in-flight request with a typed 500
  and retires its slot; it is not re-forked (the front may hold
  threads by then — forking such a process is what this design
  avoids), ``/health`` answers 503 ``"degraded"`` and a supervisor
  restarts the server.
* **Drain** (SIGTERM) lets admitted queries finish while new
  submissions are rejected; :meth:`drain` resolves when the system is
  idle, after which :meth:`stop` closes the listener and the worker
  sockets and reaps every child — clean exit, no process left behind.

All scheduler state (tenant queues, ledgers, the round-robin cursor,
the idle-worker stack) is confined to the event loop; a worker shares
nothing with it but the socket pair.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.plancache import CacheStats
from ..engine.catalog import Database
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
    ServeError,
    ServerDrainingError,
    ServerOverloadedError,
    TenantQuotaExceededError,
    TypeError_,
)
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
from .worker import REPLY_PREFIX, Worker, pack_request, run_forked

#: how long :meth:`QueryServer.stop` waits for a worker to leave after
#: its socket closed before it sends SIGKILL
_REAP_TIMEOUT_S = 5.0
_NO_WORKERS = "no worker process is alive; restart the server"

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


@dataclass
class _Request:
    """One admitted query waiting for (or holding) a worker."""

    state: TenantState
    #: the request frame, packed at admission
    frame: bytes
    future: "asyncio.Future[Dict[str, Any]]"
    enqueued_at: float = field(default_factory=time.monotonic)


@dataclass
class _WorkerSlot:
    """The front's view of one worker process: its pid, its end of the
    socket pair as asyncio streams, the request it is executing, and
    the totals its last reply reported (``/stats`` reads only these —
    it never asks a worker)."""

    pid: int
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    #: the task reading this worker's replies for as long as it lives
    replies: Optional["asyncio.Task[None]"] = None
    request: Optional[_Request] = None
    alive: bool = True
    reaped: bool = False
    requests: int = 0
    report: Dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "alive": self.alive,
            "requests": self.requests,
            "cpu_ms": round(self.report.get("cpu_ms", 0.0), 1),
            "peak_rss_mb": round(self.report.get("peak_rss_mb", 0.0), 1),
        }


class QueryServer:
    """The serving façade: admission, fair dispatch, execution, stats.

    Usable embedded (tests drive :meth:`submit` directly) or as a
    network server; either way :meth:`start` forks the worker
    processes and :meth:`stop` reaps them.  All public coroutine
    methods must be called on the server's event loop.
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
        self._tenants: Dict[str, TenantState] = {}
        self._ring: List[str] = []
        self._rr = 0
        self._total_queued = 0
        self._active = 0
        self._draining = False
        self._started = time.monotonic()
        self._slots: List[_WorkerSlot] = []
        #: live workers with no request in flight, taken from the end:
        #: most recently idle first.  A lightly loaded server keeps
        #: hitting one worker, so the others' copy-on-write pages stay
        #: shared and only one warms its caches: one
        #: connection sending the six figure texts held 216 MB across
        #: the tree against 294 MB alternating between two workers, and
        #: a sequential warm-up cost 2.3-2.75 s against 2.6-2.9 s; the
        #: execution medians were the same either way (EXPERIMENTS.md
        #: "Workers are processes").  The price: a second worker's first
        #: requests arrive cold, under load.
        self._idle_slots: List[_WorkerSlot] = []
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
        """Fork the worker processes, then bind the listener.

        The order matters: no child holds the listening socket, and the
        process is still single-threaded at the fork (binding resolves
        the host on the loop's default thread pool).
        """
        if not hasattr(os, "fork"):
            raise ServeError(
                "repro serve executes on forked worker processes and this "
                "platform has no os.fork(); there is no thread fallback"
            )
        self._idle = asyncio.Event()
        self._idle.set()
        pairs = [socket.socketpair() for _ in range(self.workers)]
        forked = []
        for front, back in pairs:
            pid = os.fork()
            if pid == 0:
                # the child keeps its own end and nothing of its siblings
                for other_front, other_back in pairs:
                    other_front.close()
                    if other_back is not back:
                        other_back.close()
                run_forked(
                    Worker(self.db, self._configs, self._default_config),
                    back,
                )
            back.close()
            forked.append((pid, front))
        loop = asyncio.get_running_loop()
        for pid, front in forked:
            reader, writer = await asyncio.open_connection(sock=front)
            slot = _WorkerSlot(pid, reader, writer)
            slot.replies = loop.create_task(self._read_replies(slot))
            self._slots.append(slot)
        self._idle_slots = list(self._slots)
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
        """Close the listener and the worker sockets, reap every child.

        A worker leaves when it reads EOF; one that has not after
        ``_REAP_TIMEOUT_S`` (it was still executing — ``stop`` without
        :meth:`drain`) is killed.  No process outlives this call.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        slots = [slot for slot in self._slots if not slot.reaped]
        for slot in slots:
            slot.writer.close()
        deadline = time.monotonic() + _REAP_TIMEOUT_S
        for slot in slots:
            slot.reaped = True
            try:
                while not os.waitpid(slot.pid, os.WNOHANG)[0]:
                    if time.monotonic() >= deadline:
                        os.kill(slot.pid, signal.SIGKILL)
                        os.waitpid(slot.pid, 0)
                        break
                    await asyncio.sleep(0.005)
            except ChildProcessError:
                pass  # the embedding process reaps its children itself
        # each reader saw the close, failed what its worker still held
        # and retired the slot
        await asyncio.gather(*(slot.replies for slot in slots))

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------ #
    # admission + fair dispatch (event loop only)
    # ------------------------------------------------------------------ #

    def _state(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            config = resolve_tenant_config(
                tenant, self._configs, self._default_config
            )
            state = TenantState(config)
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

        The payload is ``tenant``, ``columns``, ``row_count``,
        ``elapsed_ms``, ``encode_ms`` and ``body``: the ``POST /query``
        response object (those first four fields plus ``rows``, SQL
        NULL as ``null``) as the JSON bytes a worker encoded.  The rows
        live only in ``body`` — they are never Python objects in this
        process.  ``elapsed_ms`` is the worker's prepare + execute
        time: neither queueing, the hop to the worker nor encoding
        (``encode_ms``) is in it.

        Raises the typed admission errors documented in the module
        docstring, :class:`~repro.errors.InvalidArgumentError` for an
        override that cannot be sent to a worker process, whatever
        :class:`~repro.errors.ReproError` the execution itself produced
        (it comes back as itself), or :class:`~repro.errors.ServeError`
        when the worker died under the request.
        """
        self.requests_total += 1
        if self._draining:
            self.rejected_draining += 1
            raise ServerDrainingError(
                "server is draining; retry against another instance"
            )
        if not self._live_workers():
            self.rejected_draining += 1
            raise ServerDrainingError(_NO_WORKERS)
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
        try:
            frame = pack_request(tenant, sql, dict(overrides or {}))
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise InvalidArgumentError(
                f"request overrides must be plain values that can be sent "
                f"to a worker process: {exc}"
            ) from None
        loop = asyncio.get_running_loop()
        request = _Request(
            state=state, frame=frame, future=loop.create_future()
        )
        state.queue.append(request)
        state.admitted += 1
        self._total_queued += 1
        assert self._idle is not None
        self._idle.clear()
        self._dispatch()
        return await request.future

    def _live_workers(self) -> int:
        return sum(1 for slot in self._slots if slot.alive)

    def _dispatch(self) -> None:
        """Start queued work while workers and quotas allow (RR)."""
        while self._idle_slots:
            request = self._next_request()
            if request is None:
                return
            slot = self._idle_slots.pop()
            request.state.running += 1
            self._active += 1
            self._total_queued -= 1
            slot.request = request
            slot.writer.write(request.frame)

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

    async def _read_replies(self, slot: _WorkerSlot) -> None:
        """Read *slot*'s reply frames for as long as its worker lives;
        an EOF — the worker died, or :meth:`stop` closed the pair —
        retires the slot."""
        try:
            while True:
                prefix = await slot.reader.readexactly(REPLY_PREFIX.size)
                header_size, body_size = REPLY_PREFIX.unpack(prefix)
                frame = await slot.reader.readexactly(header_size + body_size)
                reply = pickle.loads(frame[:header_size])
                reply["body"] = frame[header_size:]
                self._finish(slot, reply)
        except (asyncio.IncompleteReadError, ConnectionError):
            self._retire(slot)

    def _retire(self, slot: _WorkerSlot) -> None:
        """*slot*'s worker is gone: fail what it was executing, never
        hand it work again, and fail the queue if it was the last."""
        slot.alive = False
        slot.writer.close()
        if slot in self._idle_slots:
            self._idle_slots.remove(slot)
        if slot.request is not None:
            self._finish(slot, {"error": ServeError(
                f"worker process {slot.pid} died while executing this "
                f"request; the request may be retried"
            )})
        if not self._live_workers():
            self._fail_queued()

    def _finish(self, slot: _WorkerSlot, reply: Dict[str, Any]) -> None:
        """One execution is over (event loop): account + respond."""
        request, slot.request = slot.request, None
        assert request is not None
        state = request.state
        state.running -= 1
        self._active -= 1
        report = reply.pop("worker", None)
        if report is not None:
            slot.requests += 1
            slot.report = report
        state.spills += reply.pop("spills", 0)
        exc = reply.get("error")
        if exc is not None:
            state.failed += 1
            if not request.future.done():
                request.future.set_exception(exc)
        else:
            state.completed += 1
            state.rows_returned += reply["row_count"]
            state.busy_ms += reply["elapsed_ms"]
            state.encode_ms += reply["encode_ms"]
            if not request.future.done():
                request.future.set_result(reply)
        if slot.alive:
            self._idle_slots.append(slot)
        self._dispatch()
        if self._active == 0 and self._total_queued == 0:
            assert self._idle is not None
            self._idle.set()

    def _fail_queued(self) -> None:
        """The last worker is gone: nothing queued can ever run."""
        for state in self._tenants.values():
            while state.queue:
                request = state.queue.popleft()
                self._total_queued -= 1
                state.failed += 1
                if not request.future.done():
                    request.future.set_exception(
                        ServerDrainingError(_NO_WORKERS)
                    )
        if self._active == 0:
            assert self._idle is not None
            self._idle.set()

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` payload (event loop: consistent).

        ``cache`` totals what each worker's latest reply reported, key
        by key; ``workers`` lists the processes, CPU and peak RSS as of
        that same reply.
        """
        cache = CacheStats().snapshot()
        for slot in self._slots:
            for key, count in slot.report.get("cache", {}).items():
                cache[key] += count
        return {
            "server": {
                "draining": self._draining,
                "workers": self._live_workers(),
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
            "cache": cache,
            "workers": [slot.snapshot() for slot in self._slots],
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
            if self._draining:
                return 503, {"status": "draining"}
            if self._live_workers() < self.workers:
                return 503, {"status": "degraded"}
            return 200, {"status": "ok"}
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
    rejected, the listener closes, the worker processes are reaped.
    """
    await server.start()
    try:
        if shutdown is None:
            shutdown = asyncio.Event()
        await shutdown.wait()
        await server.drain()
    finally:
        await server.stop()
