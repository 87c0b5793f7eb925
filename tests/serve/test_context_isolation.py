"""Concurrent executions never observe each other's execution context.

Two shapes of leak are pinned here, both at the thread boundary the
context is *not* supposed to cross:

* sibling threads running ``PreparedQuery.execute`` at the same time
  with different logic modes and different governors (what a server's
  worker pool does all day) — each execution must see exactly the fields
  its own session installed, for the whole execution;
* the asyncio loop thread: a scope left active there must not reach the
  ``QueryServer`` executor workers, which start every request from the
  tenant's own options.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

import repro
from repro import strategies as registry
from repro.engine.context import current
from repro.engine.governor import ResourceGovernor, governed
from repro.engine.logic import logic_mode
from repro.engine.metrics import collect
from repro.engine.trace import tracing
from repro.serve import QueryServer

SQL = (
    "select n_name from nation where n_regionkey not in "
    "(select r_regionkey from region where r_name = 'ASIA')"
)


@pytest.fixture(scope="module")
def db():
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))


class ContextProbe:
    """A strategy that checks the ambient context before and after
    running the real row strategy (whose per-comparison ``two_valued()``
    reads give the interpreter every chance to switch threads)."""

    name = "context-probe"

    def __init__(self, logic, governor, reduce_cache):
        self.expected = (logic, governor, reduce_cache)
        self.checks = 0

    def check(self):
        context = current()
        assert (
            context.logic, context.governor, context.reduce_cache
        ) == self.expected
        self.checks += 1

    def execute(self, query, db):
        self.check()
        result = registry.make("nested-relational").execute(query, db)
        self.check()
        return result


def test_concurrent_executions_see_only_their_own_context(db):
    rounds, failures = 150, []
    expected = repro.connect(db).execute(SQL).sorted()

    def hammer(logic):
        try:
            session = repro.connect(db, logic=logic)
            prepared = session.prepare(SQL)
            for _ in range(rounds):
                governor = ResourceGovernor(timeout_ms=60_000)
                probe = ContextProbe(logic, governor, session.reduce_cache())
                result = prepared.execute(strategy=probe, governor=governor)
                assert probe.checks == 2
                assert result.sorted() == expected
                assert current().governor is None  # scope was restored
        except BaseException as exc:  # noqa: BLE001 - reported below
            failures.append((logic, exc))

    # more workers than cores, and a switch interval short enough that
    # every execution is interleaved with the others many times over
    threads = [
        threading.Thread(target=hammer, args=(logic,))
        for logic in ("3vl", "2vl", "3vl", "2vl")
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_loop_thread_scope_does_not_reach_server_workers(db):
    seen = []

    class Recording:
        def execute(self, query, db):
            seen.append((threading.current_thread().name, current()))
            return registry.make("nested-relational").execute(query, db)

    registry.register(
        "context-recording", replace=True,
        description="test stub: records the worker's execution context",
    )(Recording)
    stray = ResourceGovernor(timeout_ms=60_000)

    async def main():
        server = QueryServer(db, port=0, workers=2)
        await server.start()
        try:
            with logic_mode("2vl"), governed(stray), collect(), tracing():
                payloads = await asyncio.gather(*(
                    server.submit(
                        SQL, tenant=tenant,
                        overrides={"strategy": "context-recording"},
                    )
                    for tenant in ("bi", "etl", "bi", "etl")
                ))
                # the scope is still what the loop thread itself sees
                assert current().logic == "2vl"
                assert current().governor is stray
            await server.drain()
            return payloads
        finally:
            await server.stop()

    try:
        payloads = asyncio.run(main())
    finally:
        registry.unregister("context-recording")
    assert len(payloads) == len(seen) == 4
    for thread_name, context in seen:
        assert thread_name != threading.current_thread().name
        assert context.logic == "3vl"  # the tenant default, not the stray 2vl
        assert context.governor is not stray
        assert context.metrics is None and context.tracer is None
