"""The server's worker processes: what crosses the fork, what crosses
the socket pair, and that no process outlives the server.

``QueryServer.start()`` forks its workers, so everything registered or
set in this process *before* ``start()`` — stub strategies, environment
variables, relations held by a fixture — is there in the workers; a
stub that has something to report writes it to a ``tmp_path`` file.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

import repro
from repro import strategies as registry
from repro.engine import Column, Relation, Schema
from repro.errors import (
    InvalidArgumentError,
    ParseError,
    ServeError,
    ServerDrainingError,
)
from repro.options import ExecutionOptions
from repro.serve import QueryServer, TenantConfig, http_status_for

SQL = "select o_orderkey from orders where o_totalprice > 1000"
NESTED_SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


@pytest.fixture(scope="module")
def db():
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))


@pytest.fixture
def stub():
    """Register test strategies by name; unregister them afterwards."""
    names = []

    def register(name, cls):
        registry.register(name, replace=True, description="test stub")(cls)
        names.append(name)
        return name

    yield register
    for name in names:
        registry.unregister(name)


def gone(pid: int) -> bool:
    """Whether *pid* names no process any more (reaped, not a zombie)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


async def http(port, method, path, payload=None):
    """One ``Connection: close`` exchange: (status, decoded JSON body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nConnection: close\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )
        reply = await asyncio.wait_for(reader.read(), timeout=30)
    finally:
        writer.close()
    head, _sep, content = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(content)


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #


def test_no_worker_outlives_stop(db):
    async def main():
        server = QueryServer(db, port=0, workers=3)
        await server.start()
        try:
            pids = [w["pid"] for w in server.stats()["workers"]]
            assert len(set(pids)) == 3 and os.getpid() not in pids
            assert not any(gone(pid) for pid in pids)
            assert (await server.submit(SQL))["row_count"] > 0
            await server.drain()
        finally:
            await server.stop()
        return pids

    pids = asyncio.run(main())
    assert all(gone(pid) for pid in pids)


def test_stop_without_drain_kills_a_busy_worker(db, stub, monkeypatch):
    """``stop()`` is bounded even when a worker never reads its EOF."""
    from repro.serve import server as server_module

    class Stuck:
        def execute(self, query, db):
            time.sleep(60)

    stub("stuck", Stuck)
    monkeypatch.setattr(server_module, "_REAP_TIMEOUT_S", 0.2)

    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        pids = [w["pid"] for w in server.stats()["workers"]]
        inflight = asyncio.ensure_future(
            server.submit(SQL, overrides={"strategy": "stuck"}))
        await asyncio.sleep(0.05)
        started = time.monotonic()
        await server.stop()
        with pytest.raises(ServeError):
            await asyncio.wait_for(inflight, timeout=5)
        return pids, time.monotonic() - started

    pids, took = asyncio.run(main())
    assert all(gone(pid) for pid in pids)
    assert took < 5


@pytest.mark.parametrize("how", ["SIGTERM to the front", "SIGINT to the group"])
def test_signalled_repro_serve_drains_and_leaves_no_process(how):
    """``repro serve`` signalled with a slow request in flight — the way
    a supervisor stops it, and the way a terminal's Ctrl-C reaches the
    front *and* its workers: the request is answered, the exit status is
    0, no worker survives."""
    script = textwrap.dedent("""
        import sys, time
        from repro import strategies as registry
        from repro.cli import main

        class Sleepy:
            def execute(self, query, db):
                time.sleep(0.6)
                return registry.make("nested-relational").execute(query, db)

        registry.register("sleepy", description="slow but correct")(Sleepy)
        sys.exit(main(["serve", "--port", "0", "--tpch", "0.001",
                       "--workers", "2"]))
    """)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=dict(os.environ, PYTHONPATH=SRC), start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        assert "serving on http://" in line, line
        port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

        async def main():
            _status, stats = await http(port, "GET", "/stats")
            pids = [w["pid"] for w in stats["workers"]]
            inflight = asyncio.ensure_future(http(
                port, "POST", "/query", {"sql": SQL, "strategy": "sleepy"}))
            await asyncio.sleep(0.2)  # the slow query is now executing
            if how == "SIGTERM to the front":
                proc.send_signal(signal.SIGTERM)
            else:
                os.killpg(proc.pid, signal.SIGINT)
            return pids, await inflight

        pids, (status, body) = asyncio.run(main())
        assert status == 200 and body["row_count"] > 0
        assert proc.wait(timeout=30) == 0
        assert "server drained and stopped" in proc.stdout.read()
        assert len(pids) == 2 and all(gone(pid) for pid in pids)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# --------------------------------------------------------------------- #
# A worker that dies
# --------------------------------------------------------------------- #


class Dying:
    def execute(self, query, db):
        os._exit(1)


def test_dead_worker_fails_its_request_and_the_survivor_serves(db, stub):
    stub("dying", Dying)

    async def main():
        server = QueryServer(db, port=0, workers=2)
        await server.start()
        try:
            assert await http(server.port, "GET", "/health") == (
                200, {"status": "ok"})
            status, body = await http(
                server.port, "POST", "/query",
                {"sql": SQL, "strategy": "dying"})
            assert status == 500
            assert body["error"]["type"] == "ServeError"
            assert "died" in body["error"]["message"]
            # the survivor answers, over and over
            for _ in range(3):
                status, body = await http(
                    server.port, "POST", "/query", {"sql": SQL})
                assert status == 200 and body["row_count"] > 0
            assert await http(server.port, "GET", "/health") == (
                503, {"status": "degraded"})
            stats = server.stats()
            assert stats["server"]["workers"] == 1
            assert sorted(w["alive"] for w in stats["workers"]) == [False, True]
            assert stats["tenants"]["default"]["failed"] == 1
            assert stats["tenants"]["default"]["completed"] == 3
            await server.drain()
        finally:
            await server.stop()
        return [w["pid"] for w in stats["workers"]]

    assert all(gone(pid) for pid in asyncio.run(main()))


def test_a_request_queued_behind_a_dead_workers_quota_still_runs(db, stub):
    """The tenant's one running slot dies with its worker; the request
    that waited for that quota goes to the surviving worker."""
    stub("dying", Dying)

    async def main():
        server = QueryServer(
            db, port=0, workers=2,
            tenants={"t": TenantConfig("t", max_concurrent=1)},
        )
        await server.start()
        try:
            doomed = asyncio.ensure_future(server.submit(
                SQL, tenant="t", overrides={"strategy": "dying"}))
            waiting = asyncio.ensure_future(server.submit(SQL, tenant="t"))
            with pytest.raises(ServeError):
                await asyncio.wait_for(doomed, timeout=30)
            answered = await asyncio.wait_for(waiting, timeout=30)
            assert answered["row_count"] > 0
            await asyncio.wait_for(server.drain(), timeout=30)
        finally:
            await server.stop()

    asyncio.run(main())


def test_last_worker_dead_rejects_instead_of_queueing(db, stub):
    stub("dying", Dying)

    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        try:
            doomed = asyncio.ensure_future(
                server.submit(SQL, overrides={"strategy": "dying"}))
            queued = asyncio.ensure_future(server.submit(SQL, tenant="etl"))
            with pytest.raises(ServeError) as died:
                await asyncio.wait_for(doomed, timeout=30)
            assert http_status_for(died.value) == 500
            # what waited behind it can never run: answered, not left
            with pytest.raises(ServerDrainingError):
                await asyncio.wait_for(queued, timeout=30)
            with pytest.raises(ServerDrainingError) as rejected:
                await asyncio.wait_for(server.submit(SQL), timeout=30)
            assert http_status_for(rejected.value) == 503
            assert server.stats()["server"]["workers"] == 0
            await asyncio.wait_for(server.drain(), timeout=30)
        finally:
            await server.stop()

    asyncio.run(main())


# --------------------------------------------------------------------- #
# What crosses the socket pair
# --------------------------------------------------------------------- #


def test_three_megabyte_body_crosses_intact(db, stub):
    """Larger than the pair's socket buffer and the streams' 64 KiB
    limit, in both the embedded and the HTTP path."""
    big = Relation(
        Schema((Column("i", "t"), Column("s", "t"))),
        [(i, f"{i:06d}" + "x" * 1018) for i in range(3200)],
    )

    class Big:
        def execute(self, query, db):
            return big

    stub("big", Big)

    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        try:
            payload = await server.submit(SQL, overrides={"strategy": "big"})
            status, wire = await http(
                server.port, "POST", "/query", {"sql": SQL, "strategy": "big"})
            await server.drain()
            return payload, status, wire
        finally:
            await server.stop()

    payload, status, wire = asyncio.run(main())
    assert len(payload["body"]) > 3 * 1024 * 1024
    assert payload["row_count"] == 3200
    assert json.loads(payload["body"])["rows"] == [list(r) for r in big.rows]
    assert status == 200 and wire["rows"] == [list(r) for r in big.rows]


def test_an_exception_with_constructor_arguments_comes_back_as_itself(db):
    bad = "select nope from"
    with pytest.raises(ParseError) as local:
        repro.connect(db).execute(bad)

    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        try:
            with pytest.raises(ParseError) as remote:
                await server.submit(bad)
            status, body = await http(
                server.port, "POST", "/query", {"sql": bad})
            ok = await server.submit(SQL)  # the worker is none the worse
            await server.drain()
            return remote.value, status, body, ok
        finally:
            await server.stop()

    remote, status, body, ok = asyncio.run(main())
    assert type(remote) is ParseError
    assert str(remote) == str(local.value)
    assert (remote.position, remote.line) == (
        local.value.position, local.value.line)
    assert status == http_status_for(local.value) == 400
    assert body["error"] == {"type": "ParseError", "message": str(local.value)}
    assert ok["row_count"] > 0


class Unpicklable(Exception):
    """Pickles by ``args``, which its constructor does not take back."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def test_an_exception_that_cannot_cross_arrives_as_its_name_and_text(db, stub):
    class Raising:
        def execute(self, query, db):
            raise Unpicklable(7, "no way back")

    stub("raising", Raising)

    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        try:
            with pytest.raises(RuntimeError) as remote:
                await asyncio.wait_for(server.submit(
                    SQL, overrides={"strategy": "raising"}), timeout=30)
            ok = await asyncio.wait_for(server.submit(SQL), timeout=30)
            await server.drain()
            return remote.value, ok
        finally:
            await server.stop()

    remote, ok = asyncio.run(main())
    assert str(remote) == "Unpicklable: 7: no way back"
    assert http_status_for(remote) == 500
    assert ok["row_count"] > 0


def test_an_override_that_cannot_be_pickled_is_rejected_at_submit(db):
    async def main():
        server = QueryServer(db, port=0, workers=1)
        await server.start()
        try:
            with pytest.raises(InvalidArgumentError, match="worker process"):
                await server.submit(
                    SQL, overrides={"strategy": threading.Lock()})
            stats = server.stats()
            assert stats["server"]["queued"] == stats["server"]["active"] == 0
            assert (await server.submit(SQL))["row_count"] > 0
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


# --------------------------------------------------------------------- #
# Threads and the fork
# --------------------------------------------------------------------- #


def test_a_threads_2_tenant_is_answered_in_a_single_threaded_worker(db):
    """Execution starts no thread, so the process is single-threaded at
    every fork, even after executions that asked for two threads."""
    expected = repro.connect(db).execute(NESTED_SQL)
    asked = repro.connect(db).execute(
        NESTED_SQL, options=ExecutionOptions(threads=2))
    assert asked.sorted() == expected.sorted()
    # an at-fork hook cannot be unregistered: this one records only
    # while `forks` is the list it was given
    forks = recording = []
    os.register_at_fork(before=lambda: recording is forks and forks.append(
        threading.active_count()))

    async def main():
        server = QueryServer(
            db, port=0, workers=2,
            tenants={"wide": TenantConfig(
                "wide", options=ExecutionOptions(threads=2))},
        )
        await server.start()
        try:
            # a worker stuck on a dead pool fails here, and stop() kills it
            payloads = await asyncio.wait_for(asyncio.gather(*(
                server.submit(NESTED_SQL, tenant="wide") for _ in range(2)
            )), timeout=60)
            await server.drain()
            return payloads
        finally:
            await server.stop()

    payloads = asyncio.run(main())
    recording = None
    # the process was single-threaded at each of the two forks
    assert forks == [1, 1]
    for payload in payloads:
        rows = json.loads(payload["body"])["rows"]
        assert sorted(map(tuple, rows)) == sorted(expected.rows)
