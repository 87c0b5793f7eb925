"""Server-level behavior: quotas, fairness, drain, stats, HTTP routes.

Driven through :meth:`repro.serve.QueryServer.submit` on a real event
loop (plain ``asyncio.run`` — no async test plugin needed), plus one
test exercising the actual HTTP surface end-to-end.  Slow queries are
simulated with a stub strategy registered for the test, so timing never
depends on data size.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro import strategies as registry
from repro.errors import (
    ExecutionError,
    InvalidArgumentError,
    ParseError,
    QueryTimeoutError,
    ResourceExhaustedError,
    ServerDrainingError,
    ServerOverloadedError,
    TenantQuotaExceededError,
)
from repro.serve import QueryServer, TenantConfig, http_status_for

SQL = "select o_orderkey from orders where o_totalprice > 1000"
SLEEP_S = 0.12


@pytest.fixture(scope="module")
def db():
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))


@pytest.fixture
def sleepy():
    """A registered strategy that sleeps, then answers correctly."""

    class Sleepy:
        def execute(self, query, db):
            time.sleep(SLEEP_S)
            return registry.make("nested-relational").execute(query, db)

    registry.register("sleepy", replace=True,
                      description="test stub: slow but correct")(Sleepy)
    yield "sleepy"
    registry.unregister("sleepy")


async def _started(db, **kwargs) -> QueryServer:
    server = QueryServer(db, port=0, **kwargs)
    await server.start()
    return server


def test_submit_executes_and_shares_plan_cache(db):
    """Plans are shared across tenants *within* a worker process."""

    async def main():
        server = await _started(db, workers=1)
        try:
            expected = repro.connect(db).execute(SQL)
            first = await server.submit(SQL, tenant="bi")
            again = await server.submit(SQL, tenant="etl")
            assert first["row_count"] == len(expected)
            assert first["columns"] == list(expected.schema.names)
            assert (json.loads(again["body"])["rows"]
                    == json.loads(first["body"])["rows"]
                    == [list(row) for row in expected.rows])
            stats = server.stats()
            # the second tenant's session hit the worker's one plan memo
            assert stats["cache"]["plan_misses"] == 1
            assert stats["cache"]["plan_hits"] == 1
            assert stats["tenants"]["bi"]["completed"] == 1
            assert stats["tenants"]["etl"]["completed"] == 1
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


def test_stats_cache_is_the_sum_over_workers(db):
    """Two workers, two memos: ``/stats`` ``cache`` adds them key-wise
    and ``workers`` lists the processes behind the totals."""

    async def main():
        server = await _started(db, workers=2)
        try:
            # both in flight at once, so one lands on each worker: the
            # same text misses twice (one shared memo would hit once)
            await asyncio.gather(
                server.submit(SQL, tenant="bi"),
                server.submit(SQL, tenant="etl"),
            )
            stats = server.stats()
            assert [w["requests"] for w in stats["workers"]] == [1, 1]
            assert stats["cache"]["plan_misses"] == 2
            assert stats["cache"]["plan_hits"] == 0
            await server.submit(SQL, tenant="bi")
            stats = server.stats()
            assert sorted(w["requests"] for w in stats["workers"]) == [1, 2]
            assert stats["cache"]["plan_misses"] == 2
            assert stats["cache"]["plan_hits"] == 1
            assert stats["server"]["workers"] == 2
            for worker in stats["workers"]:
                assert worker["alive"] and worker["pid"] != os.getpid()
                assert worker["cpu_ms"] > 0 and worker["peak_rss_mb"] > 0
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


def test_worker_header_reports_cache_cpu_and_memory_only(db):
    """A worker's reply header carries its cache counters, CPU and peak
    RSS, and nothing else: no observed-cardinality count, no epoch."""
    from repro.serve.worker import Worker

    header, body = Worker(db, {}, None).execute("bi", SQL, {})
    assert "error" not in header and body
    assert set(header["worker"]) == {"cache", "cpu_ms", "peak_rss_mb"}


def test_tenant_quota_rejection_while_inflight_complete(db, sleepy):
    async def main():
        server = await _started(
            db, workers=4,
            tenants={"t": TenantConfig("t", max_concurrent=1, max_queued=1)},
        )
        try:
            submits = [
                asyncio.ensure_future(
                    server.submit(SQL, tenant="t",
                                  overrides={"strategy": sleepy})
                )
                for _ in range(4)
            ]
            outcomes = await asyncio.gather(*submits, return_exceptions=True)
            rejected = [o for o in outcomes
                        if isinstance(o, TenantQuotaExceededError)]
            completed = [o for o in outcomes if isinstance(o, dict)]
            # capacity 1 running + 1 queued => exactly 2 admitted, 2 typed
            # rejections, and the admitted ones still answered correctly
            assert len(rejected) == 2
            assert len(completed) == 2
            for payload in completed:
                assert payload["row_count"] > 0
            assert server.stats()["tenants"]["t"]["rejected_quota"] == 2
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


def test_global_admission_queue_overload(db, sleepy):
    async def main():
        server = await _started(db, workers=1, queue_size=1)
        try:
            first = asyncio.ensure_future(
                server.submit(SQL, overrides={"strategy": sleepy}))
            await asyncio.sleep(0.02)  # let it dispatch (queue empties)
            second = asyncio.ensure_future(
                server.submit(SQL, overrides={"strategy": sleepy}))
            await asyncio.sleep(0.02)  # second now waits in the queue
            with pytest.raises(ServerOverloadedError):
                await server.submit(SQL, overrides={"strategy": sleepy})
            assert (await first)["row_count"] > 0
            assert (await second)["row_count"] > 0
            assert server.rejected_overload == 1
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


def test_round_robin_is_fair_across_tenants(db, sleepy):
    """A flooding tenant cannot starve another: with one worker, tenant
    b's single query completes before tenant a's backlog drains (FIFO
    dispatch would run it last)."""

    async def main():
        server = await _started(db, workers=1)
        try:
            order = []

            async def tracked(tenant):
                await server.submit(SQL, tenant=tenant,
                                    overrides={"strategy": sleepy})
                order.append(tenant)

            tasks = [asyncio.ensure_future(tracked("a")) for _ in range(3)]
            await asyncio.sleep(0.02)  # a's first is running, rest queued
            tasks.append(asyncio.ensure_future(tracked("b")))
            await asyncio.gather(*tasks)
            assert order.index("b") < len(order) - 1, order
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


def test_graceful_drain_finishes_inflight_rejects_new(db, sleepy):
    async def main():
        server = await _started(db, workers=2)
        try:
            inflight = [
                asyncio.ensure_future(
                    server.submit(SQL, overrides={"strategy": sleepy}))
                for _ in range(3)
            ]
            await asyncio.sleep(0.02)
            drain = asyncio.ensure_future(server.drain())
            await asyncio.sleep(0.02)
            assert server.draining
            with pytest.raises(ServerDrainingError):
                await server.submit(SQL)
            results = await asyncio.gather(*inflight)
            assert all(r["row_count"] > 0 for r in results)
            await drain  # resolves because the system is idle
            assert server.stats()["server"]["active"] == 0
        finally:
            await server.stop()

    asyncio.run(main())


@pytest.mark.parametrize(
    ("exc", "status"),
    [
        (ServerOverloadedError("queue full"), 429),
        (TenantQuotaExceededError("over quota"), 429),
        (ServerDrainingError("draining"), 503),
        (ParseError("bad sql"), 400),
        (InvalidArgumentError("bad strategy"), 400),
        (QueryTimeoutError("deadline"), 504),
        (ResourceExhaustedError("memory limit"), 503),
        (ExecutionError("operator failed"), 500),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_http_status_for_each_error_family(exc, status):
    """The status the wire answers: admission rejections are 429, a
    draining server and a governor's memory limit 503, a timeout 504
    (checked before its governor base class), the request's own faults
    400 and anything else 500."""
    assert http_status_for(exc) == status


def test_http_surface_end_to_end(db, sleepy):
    """Real sockets: /query, /stats, /health, typed errors, bad routes,
    and an over-quota burst answered 429 with its typed error."""

    async def main():
        server = await _started(
            db, workers=2,
            tenants={"probe": TenantConfig("probe", max_concurrent=1,
                                           max_queued=0)},
        )
        url = f"http://127.0.0.1:{server.port}"
        loop = asyncio.get_running_loop()

        def post(path, payload):
            req = urllib.request.Request(
                url + path, data=json.dumps(payload).encode(), method="POST")
            try:
                with urllib.request.urlopen(req) as r:
                    return r.status, json.load(r)
            except urllib.error.HTTPError as e:
                return e.code, json.load(e)

        def get(path):
            try:
                with urllib.request.urlopen(url + path) as r:
                    return r.status, json.load(r)
            except urllib.error.HTTPError as e:
                return e.code, json.load(e)

        try:
            status, body = await loop.run_in_executor(
                None, post, "/query", {"sql": SQL, "tenant": "curl"})
            assert status == 200 and body["row_count"] > 0

            status, body = await loop.run_in_executor(
                None, post, "/query", {"sql": "select nope from"})
            assert status == 400
            assert body["error"]["type"] == "ParseError"

            status, body = await loop.run_in_executor(
                None, post, "/query", {"sql": SQL, "bogus_knob": 1})
            assert status == 400
            assert "bogus_knob" in body["error"]["message"]

            status, body = await loop.run_in_executor(
                None, post, "/query", {"sql": SQL, "threads": 0})
            assert status == 400
            assert body["error"]["type"] == "InvalidArgumentError"

            status, body = await loop.run_in_executor(
                None, post, "/query", {"sql": SQL, "degrade": "sequential"})
            assert status == 400
            assert "degrade" in body["error"]["message"]

            # one slow request runs, the rest of the burst finds the
            # tenant's one slot taken and no queue
            burst = await asyncio.gather(*(
                loop.run_in_executor(
                    None, post, "/query",
                    {"sql": SQL, "tenant": "probe", "strategy": sleepy})
                for _ in range(4)
            ))
            assert {status for status, _ in burst} == {200, 429}, burst
            for status, body in burst:
                if status == 429:
                    assert body["error"]["type"] == "TenantQuotaExceededError"

            status, body = await loop.run_in_executor(None, get, "/stats")
            assert status == 200
            assert {"server", "cache", "tenants"} <= set(body)
            assert "feedback" not in body
            assert body["tenants"]["curl"]["completed"] == 1

            status, body = await loop.run_in_executor(None, get, "/health")
            assert (status, body["status"]) == (200, "ok")

            status, body = await loop.run_in_executor(None, get, "/nowhere")
            assert status == 404
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())


def test_per_request_governor_timeout_is_typed(db, sleepy):
    """A request-level timeout surfaces as QueryTimeoutError for that
    request only; the next request on the same tenant succeeds."""
    from repro.errors import QueryTimeoutError

    async def main():
        server = await _started(db, workers=1)
        try:
            with pytest.raises(QueryTimeoutError):
                await server.submit(
                    SQL, tenant="t",
                    overrides={"strategy": sleepy, "timeout_ms": 10},
                )
            ok = await server.submit(SQL, tenant="t")
            assert ok["row_count"] > 0
            stats = server.stats()["tenants"]["t"]
            assert stats["failed"] == 1 and stats["completed"] == 1
            await server.drain()
        finally:
            await server.stop()

    asyncio.run(main())
