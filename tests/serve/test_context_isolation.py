"""Concurrent executions never observe each other's execution context.

Two shapes of leak are pinned here, both at a boundary the context is
*not* supposed to cross:

* sibling threads running ``PreparedQuery.execute`` at the same time
  with different logic modes and different governors (what an embedding
  application's thread pool does all day) — each execution must see
  exactly the fields its own session installed, for the whole execution;
* the fork: a scope active on the asyncio loop — while it submits, or
  around ``QueryServer.start()`` itself — must not reach the worker
  processes, which start every request from the tenant's own options.
"""

from __future__ import annotations

import asyncio
import json
import os
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


@pytest.mark.parametrize("scope_around", ["submit", "start"])
def test_loop_thread_scope_does_not_reach_server_workers(
    db, tmp_path, scope_around
):
    """The recording strategy runs in a worker process, so it reports
    through a JSON-lines file: what it saw of the ambient context."""
    seen_path = tmp_path / "seen.jsonl"
    stray = ResourceGovernor(timeout_ms=60_000)

    class Recording:
        def execute(self, query, db):
            context = current()
            with open(seen_path, "a") as handle:
                handle.write(json.dumps({
                    "pid": os.getpid(),
                    "logic": context.logic,
                    "governor": (
                        None if context.governor is None
                        else context.governor.timeout_ms
                    ),
                    "untraced": (
                        context.metrics is None and context.tracer is None
                    ),
                }) + "\n")
            return registry.make("nested-relational").execute(query, db)

    registry.register(
        "context-recording", replace=True,
        description="test stub: records the worker's execution context",
    )(Recording)

    async def submit_four(server):
        return await asyncio.gather(*(
            server.submit(
                SQL, tenant=tenant,
                overrides={"strategy": "context-recording",
                           "timeout_ms": 30_000},
            )
            for tenant in ("bi", "etl", "bi", "etl")
        ))

    async def main():
        server = QueryServer(db, port=0, workers=2)
        if scope_around == "start":
            # the harder case: the workers are forked inside the scope
            with logic_mode("2vl"), governed(stray), collect(), tracing():
                await server.start()
        else:
            await server.start()
        try:
            with logic_mode("2vl"), governed(stray), collect(), tracing():
                payloads = await submit_four(server)
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
    seen = [json.loads(line) for line in seen_path.read_text().splitlines()]
    assert len(payloads) == len(seen) == 4
    assert len({entry["pid"] for entry in seen}) == 2
    for entry in seen:
        assert entry["pid"] != os.getpid()
        assert entry["logic"] == "3vl"  # the tenant default, not the stray 2vl
        assert entry["governor"] == 30_000  # the request's own, not the stray
        assert entry["untraced"]
