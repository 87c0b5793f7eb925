"""A minimal HTTP/1.1 layer over asyncio streams.

The server speaks exactly the subset the query protocol needs — JSON
request bodies, JSON responses, keep-alive — implemented directly on
``asyncio`` streams so serving needs no dependency beyond the standard
library.  This is deliberately not a general web server: no chunked
transfer, no multipart, no TLS; a reverse proxy supplies those in any
real deployment.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

#: request line + headers may not exceed this many bytes
MAX_HEADER_BYTES = 16 * 1024
#: JSON bodies may not exceed this many bytes (SQL text is small)
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """The peer sent something that is not acceptable HTTP/1.1."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class HttpRequest:
    """One parsed request: method, path, lower-cased headers, raw body."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to persistent connections unless closed."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body decoded as JSON (:class:`ProtocolError` on garbage)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")


def _content_length(text: str) -> int:
    """A Content-Length value: ``1*DIGIT`` (RFC 9110 §8.6) — not what
    ``int()`` also takes (a sign, ``_`` separators, other scripts'
    digits)."""
    if not (text.isascii() and text.isdigit()):
        raise ProtocolError(f"bad Content-Length: {text!r}")
    return int(text)


async def read_request(reader) -> Optional[HttpRequest]:
    """Read one request off *reader*; ``None`` on a clean EOF.

    Raises :class:`ProtocolError` for malformed framing or oversized
    messages — the connection handler answers with the error's status
    and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError(f"truncated request head: {exc}")
    except asyncio.LimitOverrunError:  # no end of head within the buffer
        raise ProtocolError("request head too large", status=413)
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError("request head too large", status=413)
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    lengths = set()
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            lengths.add(_content_length(value))
        headers[name] = value
    if len(lengths) > 1:
        # a proxy keeping the other value would frame another body
        raise ProtocolError(
            f"bad Content-Length: conflicting values {sorted(lengths)}"
        )
    length = lengths.pop() if lengths else 0
    if length > MAX_BODY_BYTES:
        raise ProtocolError(
            f"body of {length} bytes exceeds limit {MAX_BODY_BYTES}",
            status=413,
        )
    body = await reader.readexactly(length) if length else b""
    return HttpRequest(method=method, path=path, headers=headers, body=body)


def response_bytes(
    status: int, payload: Any, keep_alive: bool = True
) -> bytes:
    """Frame one JSON response: *payload* is serialized here unless it
    is ``bytes``, a body the caller has already encoded."""
    if isinstance(payload, bytes):
        body = payload
    else:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


def parse_query_body(payload: Any) -> Tuple[str, str, Dict[str, Any]]:
    """Validate a ``POST /query`` body into (sql, tenant, overrides).

    Allowed override keys mirror the Session API's per-call kwargs,
    minus the filesystem-shaped ones (``spill_dir`` stays server
    policy — a remote client must not point executions at arbitrary
    paths).  Unknown keys are rejected so typos fail loudly.
    """
    from .tenants import DEFAULT_TENANT

    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    sql = payload.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError('request body needs a non-empty "sql" string')
    tenant = payload.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError('"tenant" must be a non-empty string')
    allowed = {
        "strategy", "backend", "threads", "timeout_ms", "memory_limit_mb",
        "logic",
    }
    overrides = {
        key: value
        for key, value in payload.items()
        if key not in ("sql", "tenant") and value is not None
    }
    unknown = set(overrides) - allowed
    if unknown:
        raise ProtocolError(
            f"unknown request field(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )
    return sql, tenant, overrides
