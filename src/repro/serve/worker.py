"""What runs inside one forked worker process of the query server.

:class:`~repro.serve.server.QueryServer` forks ``workers`` children,
each holding one end of a ``socket.socketpair()``; the child calls
:func:`run_forked` and never returns.  A worker owns everything an
execution touches — its own :class:`~repro.core.plancache.SessionCache`,
one :class:`~repro.session.Session` per tenant — over the
:class:`~repro.engine.catalog.Database` it inherited from the fork, and
loops *read a request frame, execute, write a reply frame* until the
front closes the socket.

Frames are a private format between one code base and its own fork
(the only bytes ever unpickled are the ones the other end of the pair
wrote):

* request — a 4-byte length, then the pickled ``(tenant, sql,
  overrides)``;
* reply — two 4-byte lengths, then a pickled header (the result's
  ``columns`` / ``row_count`` / ``elapsed_ms`` / ``encode_ms`` or the
  raised exception, the governor's counters, and this worker's cache,
  CPU and memory totals), then the response body **as the
  bytes the HTTP route answers with** — rows are encoded here and are
  never pickled.
"""

from __future__ import annotations

import contextvars
import gc
import json
import os
import pickle
import resource
import signal
import socket
import struct
import time
import traceback
from typing import Any, Dict, Optional, Tuple

from ..core.plancache import SessionCache
from ..engine.catalog import Database
from ..engine.types import is_null
from ..options import ExecutionOptions
from ..session import Session
from .tenants import TenantConfig, resolve_tenant_config

#: a request frame's prefix: the length of the pickle that follows
REQUEST_PREFIX = struct.Struct("!I")
#: a reply frame's prefix: the header pickle's length, then the body's
REPLY_PREFIX = struct.Struct("!II")


def pack_request(tenant: str, sql: str, overrides: Dict[str, Any]) -> bytes:
    """One request frame (raises what ``pickle`` raises for an override
    that cannot cross a process boundary)."""
    payload = pickle.dumps((tenant, sql, overrides), pickle.HIGHEST_PROTOCOL)
    return REQUEST_PREFIX.pack(len(payload)) + payload


def _json_value(value: Any) -> Any:
    """The encoder's ``default=`` hook, entered only for a cell that is
    not JSON-native: the NULL marker -> ``null``, anything else (a
    date, a numpy scalar) -> ``str``."""
    return None if is_null(value) else str(value)


def encode_body(wire: Dict[str, Any]) -> bytes:
    """The ``POST /query`` response object as its JSON bytes: one pass
    of the C encoder over the engine's row tuples; see DESIGN §16
    "Result egress"."""
    return json.dumps(
        wire, separators=(",", ":"), default=_json_value
    ).encode("utf-8")


def _portable(exc: Exception) -> Exception:
    """*exc* itself if it survives the trip to the front — most do, by
    their ``args`` — else a ``RuntimeError`` carrying its name and text
    (an exception holding a lock, or one whose constructor does not
    take its own ``args`` back)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


class Worker:
    """One worker process's execution state and its frame loop."""

    def __init__(
        self,
        db: Database,
        configs: Dict[str, TenantConfig],
        default_config: Optional[TenantConfig],
    ):
        self.db = db
        self._configs = configs
        self._default_config = default_config
        # one cache under every session of this worker: tenants share
        # compiled plans and reduced builds with whoever else this
        # worker serves
        self._cache = SessionCache(enabled=True)
        self._sessions: Dict[str, Tuple[TenantConfig, Session]] = {}

    def _session(self, tenant: str) -> Tuple[TenantConfig, Session]:
        entry = self._sessions.get(tenant)
        if entry is None:
            config = resolve_tenant_config(
                tenant, self._configs, self._default_config
            )
            session = Session(
                self.db,
                options=config.options,
                cache=self._cache,
            )
            entry = self._sessions[tenant] = (config, session)
        return entry

    def execute(
        self, tenant: str, sql: str, overrides: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], bytes]:
        """Run one admitted query on this worker's session for *tenant*
        and encode its response: the reply header and the body.

        ``elapsed_ms`` is prepare + execute; encoding the rows is timed
        beside it as ``encode_ms``.  Whatever the execution raises
        travels in the header as ``error``, with an empty body.
        """
        started = time.monotonic()
        governor, body = None, b""
        try:
            config, session = self._session(tenant)
            # the tenant's options layered with the request overrides,
            # once: a fresh governor per request is built from them (the
            # front harvests its spill counter from the reply header) and
            # the execution runs under them
            options = session.options.merged(ExecutionOptions(**overrides))
            governor = session.governor(options)
            result = session.prepare(sql).execute(
                governor=governor, options=options
            )
            encode_started = time.monotonic()
            header = {
                "tenant": config.name,
                "columns": list(result.schema.names),
                "rows": result.rows,
                "row_count": len(result),
                "elapsed_ms": round((encode_started - started) * 1000.0, 3),
            }
            body = encode_body(header)
            del header["rows"]  # they cross as the body's bytes, only
            header["encode_ms"] = (
                time.monotonic() - encode_started
            ) * 1000.0
        except Exception as exc:  # the boundary: reported to the front
            header, body = {"error": _portable(exc)}, b""
        if governor is not None:
            header["spills"] = governor.spill_count
        usage = resource.getrusage(resource.RUSAGE_SELF)
        header["worker"] = {
            "cache": self._cache.stats_snapshot(),
            "cpu_ms": (usage.ru_utime + usage.ru_stime) * 1000.0,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        return header, body

    def serve(self, sock: socket.socket) -> None:
        """Answer request frames on *sock* until the front closes it (a
        short read is the EOF)."""
        with sock.makefile("rb") as frames:
            while True:
                prefix = frames.read(REQUEST_PREFIX.size)
                if len(prefix) < REQUEST_PREFIX.size:
                    return
                size, = REQUEST_PREFIX.unpack(prefix)
                frame = frames.read(size)
                if len(frame) < size:
                    return
                header, body = self.execute(*pickle.loads(frame))
                packed = pickle.dumps(header, pickle.HIGHEST_PROTOCOL)
                sock.sendall(
                    REPLY_PREFIX.pack(len(packed), len(body)) + packed + body
                )


def run_forked(worker: Worker, sock: socket.socket) -> None:
    """The child's side of the fork: serve *sock*, then leave through
    ``os._exit`` — never back into the event loop, the ``atexit``
    handlers or the test runner the fork copied.

    Nothing ambient crosses the fork: the loop runs under a fresh
    :class:`contextvars.Context` (an empty
    :class:`~repro.engine.context.ExecutionContext` whatever scope was
    active around ``start()``), the parent's signal wake-up descriptor
    is dropped (a signal here must not be read by the parent's loop),
    SIGTERM kills the worker and SIGINT is ignored — a terminal's
    Ctrl-C reaches the whole group, the front drains, and workers
    follow its sockets.
    """
    status = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # what the fork copied is never garbage here: keep the
        # collector off those pages (they stay shared with the front)
        gc.freeze()
        contextvars.Context().run(worker.serve, sock)
        status = 0
    except ConnectionError:
        status = 0  # the front went away mid-frame
    except BaseException:  # no caller to re-raise to: report, then exit
        traceback.print_exc()
    finally:
        os._exit(status)
