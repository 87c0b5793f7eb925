"""Request heads a client should not send, through a live server.

A head over ``MAX_HEADER_BYTES`` is answered 413 and the connection is
closed — also when it overruns the ``StreamReader`` limit, where
``readuntil`` raises ``LimitOverrunError`` (which has no ``.partial``
and used to be taken for a clean EOF: the connection closed with no
response at all).  ``Content-Length`` is one run of ASCII digits,
repeated only with the same value; anything else is answered 400 and
closed, and a well-formed length over ``MAX_BODY_BYTES`` 413.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro.serve import QueryServer
from repro.serve.http import MAX_BODY_BYTES, MAX_HEADER_BYTES


@pytest.fixture(scope="module")
def db():
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.0001))


def exchange(db, sent: bytes, half_close: bool = False) -> bytes:
    """Everything the server answers to *sent* until it closes."""

    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(sent)
            await writer.drain()
            if half_close:
                writer.write_eof()
            try:
                return await asyncio.wait_for(reader.read(), timeout=10)
            finally:
                writer.close()
        finally:
            await server.drain()
            await server.stop()

    return asyncio.run(main())


def head_with_header_of(size: int) -> bytes:
    return (
        b"GET /health HTTP/1.1\r\nHost: t\r\nX-Pad: " + b"a" * size
        + b"\r\n\r\n"
    )


@pytest.mark.parametrize(
    "size",
    [MAX_HEADER_BYTES + 4096, 70 * 1024],
    ids=["20KiB-under-reader-limit", "70KiB-over-reader-limit"],
)
def test_oversized_head_is_answered_413_and_closed(db, size):
    answer = exchange(db, head_with_header_of(size))
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 Payload Too Large\r\n"), answer[:80]
    assert b"Connection: close" in head
    error = json.loads(body)["error"]
    assert error["type"] == "ProtocolError"
    assert "too large" in error["message"]


def test_head_at_the_limit_is_served(db):
    request = head_with_header_of(
        MAX_HEADER_BYTES - len(head_with_header_of(0)))
    assert len(request) == MAX_HEADER_BYTES
    answer = exchange(db, request, half_close=True)
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n"), answer[:80]


def test_clean_close_and_truncated_head(db):
    # EOF between requests is a clean close: nothing is answered
    assert exchange(db, b"", half_close=True) == b""
    # EOF inside a head is a protocol error, not a clean close
    answer = exchange(db, b"GET /health HTTP/1.1\r\nHost", half_close=True)
    assert answer.startswith(b"HTTP/1.1 400 Bad Request\r\n"), answer[:80]
    assert b"truncated request head" in answer


def head_with_lengths(*lengths: str) -> bytes:
    fields = b"".join(b"Content-Length: " + n.encode() + b"\r\n" for n in lengths)
    return b"POST /query HTTP/1.1\r\nHost: t\r\n" + fields + b"\r\n"


@pytest.mark.parametrize(
    "lengths, body",
    [
        (("1_0",), b"0123456789"),
        (("+4",), b"{}{}"),
        (("-5",), b""),
        (("4", "10"), b"{}{}"),
    ],
    ids=["underscore", "plus-sign", "negative", "conflicting-duplicates"],
)
def test_content_length_must_be_one_agreed_run_of_digits(db, lengths, body):
    """``int()`` also reads ``1_0``, ``+4`` and ``-5``, and a second
    field used to override the first: a proxy framing the body by the
    other reading would smuggle a request past this server."""
    answer = exchange(db, head_with_lengths(*lengths) + body)
    head, _, payload = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n"), answer[:80]
    assert b"Connection: close" in head
    error = json.loads(payload)["error"]
    assert error["type"] == "ProtocolError"
    assert error["message"].startswith("bad Content-Length")


def test_identical_duplicate_lengths_are_one_length(db):
    request = (
        b"GET /health HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: 0\r\nContent-Length: 0\r\n\r\n"
    )
    answer = exchange(db, request, half_close=True)
    assert answer.startswith(b"HTTP/1.1 200 OK\r\n"), answer[:80]


def test_a_well_formed_length_over_the_limit_is_413(db):
    answer = exchange(db, head_with_lengths(str(MAX_BODY_BYTES + 1)))
    assert answer.startswith(b"HTTP/1.1 413 Payload Too Large\r\n"), answer[:80]
    assert b"exceeds limit" in answer
