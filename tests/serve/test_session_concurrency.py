"""Concurrency hammer: one Session shared by many threads.

The serving layer pools sessions over one plan cache, so
``prepare()``/``execute()`` must be safe — and *exact* — under
concurrent callers.  These tests pin the thread-safety fixes to
:class:`~repro.core.plancache.SessionCache` (locked counters + FIFO
eviction): on the pre-fix code the counter-conservation and eviction
assertions fail intermittently (lost ``+=`` updates, double-evict
``KeyError``).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core.plancache import _MAX_ENTRIES, SessionCache
from repro.engine import Database

N_THREADS = 8
ROUNDS = 6


@pytest.fixture(scope="module")
def db():
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))


@pytest.fixture(scope="module")
def workload():
    return [
        "select o_orderkey, o_orderpriority from orders "
        "where o_totalprice > 1000",
        "select o_orderkey from orders where exists "
        "(select * from lineitem where l_orderkey = o_orderkey "
        "and l_quantity > 30)",
        "select o_orderkey from orders where o_totalprice > all "
        "(select l_extendedprice from lineitem "
        "where l_orderkey = o_orderkey)",
        "select p_partkey from part where p_size in "
        "(select s_suppkey from supplier)",
    ]


def _bag(relation):
    return sorted(relation.rows, key=repr)


def test_parallel_session_parity_vs_sequential(db, workload):
    """N threads × mixed queries over ONE session == sequential answers."""
    session = repro.connect(db)
    baseline = {sql: _bag(session.execute(sql)) for sql in workload}

    errors = []

    def hammer(seed: int):
        try:
            for i in range(ROUNDS):
                sql = workload[(seed + i) % len(workload)]
                got = session.prepare(sql).execute(
                    backend="vector" if (seed + i) % 2 else None
                )
                assert _bag(got) == baseline[sql], sql
        except Exception as exc:  # surfaced below with context
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(hammer, range(N_THREADS)))
    assert errors == []


def test_cache_counters_conserved_under_concurrent_prepare(db, workload):
    """plan hits + misses == total prepare() calls (no lost updates)."""
    session = repro.connect(db)
    calls_per_thread = 25

    def hammer(seed: int):
        for i in range(calls_per_thread):
            session.prepare(workload[(seed + i) % len(workload)])

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(hammer, range(N_THREADS)))
    stats = session.cache_stats
    total = N_THREADS * calls_per_thread
    assert stats.plan_hits + stats.plan_misses == total
    # every distinct SQL text compiled at least once, and re-compilation
    # was the exception, not the rule
    assert stats.plan_misses >= len(workload)
    assert stats.plan_hits > 0


def test_fifo_eviction_safe_and_conserved_under_concurrent_stores():
    """Concurrent inserts far past the bound: no double-evict KeyError,
    and evictions == inserts - retained exactly."""
    cache = SessionCache(enabled=True)
    cache.validate(Database())
    per_thread = _MAX_ENTRIES  # 8 × 256 inserts against a 256 bound

    def hammer(seed: int):
        for i in range(per_thread):
            cache.store_plan(f"sql-{seed}-{i}", object())

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(hammer, range(N_THREADS)))
    inserted = N_THREADS * per_thread
    retained = len(cache._plans)
    assert retained <= _MAX_ENTRIES
    assert cache.stats.evictions == inserted - retained


def test_concurrent_traces_keep_results_and_explain_exact(db, workload):
    """Threads tracing and explaining through ONE session: every trace
    returns the sequential answer, and every EXPLAIN the document it
    rendered before any run (tracing feeds nothing back)."""
    session = repro.connect(db)
    prepared = [session.prepare(sql) for sql in workload]
    baseline = [_bag(p.execute()) for p in prepared]
    plans = [p.explain().render("json") for p in prepared]
    errors = []

    def hammer(seed: int):
        try:
            for i in range(ROUNDS):
                k = (seed + i) % len(workload)
                result, _trace = prepared[k].trace()
                assert _bag(result) == baseline[k], workload[k]
                assert prepared[k].explain().render("json") == plans[k]
        except Exception as exc:  # surfaced below with context
            errors.append(exc)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(hammer, range(N_THREADS)))
    assert errors == []


def test_row_sessions_share_reduce_images_but_not_options_or_logic(db):
    """Tenants on ``backend="row"`` over ONE SessionCache (the server's
    pooling): each reads the images the others built, and none runs
    under another's logic mode or limits.

    ``not (o_comment = 'x')`` over a column with NULLs injected keeps a
    NULL comment only under 2VL, so a tenant served the other mode's
    image — or evaluating under the other mode — returns the wrong bag.
    """
    import sys

    from repro.engine.types import NULL

    orders = db.relation("orders")
    comment = orders.schema.index_of("o_comment")
    nullable = repro.engine.Database()
    nullable.create_table(
        "orders",
        list(orders.schema.columns),
        [
            row[:comment] + (NULL,) + row[comment + 1:] if i % 3 == 0 else row
            for i, row in enumerate(orders.rows)
        ],
    )
    nullable.create_table(
        "lineitem",
        list(db.relation("lineitem").schema.columns),
        db.relation("lineitem").rows,
    )
    sql = (
        "select o_orderkey from orders "
        "where not (o_comment = 'x') and o_totalprice > all "
        "(select l_extendedprice from lineitem "
        "where l_orderkey = o_orderkey and l_quantity > 10)"
    )
    cache = SessionCache()
    tenants = [
        repro.Session(nullable, cache=cache, **settings)
        for settings in (
            {"logic": "3vl"},
            {"logic": "2vl", "timeout_ms": 60_000},
            {"logic": "3vl", "memory_limit_mb": 512},
            {"logic": "2vl"},
        )
    ]
    expected = {
        logic: _bag(
            repro.connect(nullable, logic=logic, plan_cache=False).execute(
                sql, backend="row"
            )
        )
        for logic in ("3vl", "2vl")
    }
    assert expected["3vl"] != expected["2vl"]

    barrier = threading.Barrier(len(tenants))
    errors = []

    def serve(session):
        try:
            barrier.wait(timeout=30)
            for _ in range(ROUNDS):
                got = session.prepare(sql).execute(backend="row")
                assert _bag(got) == expected[session.logic], session.logic
        except Exception as exc:  # surfaced below with context
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(tenants)) as pool:
            list(pool.map(serve, tenants))
    finally:
        sys.setswitchinterval(interval)
    assert errors == []

    stats = cache.stats_snapshot()
    blocks = 2
    lookups = len(tenants) * ROUNDS * blocks
    assert stats["reduce_hits"] + stats["reduce_misses"] == lookups
    # one image per (block, logic mode): at most every tenant missed
    # each of its own once, racing the tenant it shares a mode with
    assert stats["reduce_misses"] <= len(tenants) * blocks
    assert len(cache._reduced) == 2 * blocks
    assert cache._reduced_cells == sum(
        cells for _image, cells in cache._reduced.values()
    )
    # a tenant arriving later is served entirely by the others' builds
    late = repro.Session(nullable, cache=cache, logic="2vl")
    assert _bag(late.execute(sql, backend="row")) == expected["2vl"]
    assert cache.stats_snapshot()["reduce_misses"] == stats["reduce_misses"]
