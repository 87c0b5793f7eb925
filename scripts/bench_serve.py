#!/usr/bin/env python
"""Serving benchmark: the six paper queries under concurrent clients.

Usage::

    python scripts/bench_serve.py --sf 0.01 --clients 64 --requests 10 \
        --out benchmarks/BENCH_serve.json

The script

1. starts ``repro serve`` as a subprocess on an ephemeral port over an
   in-memory TPC-H instance at ``--sf`` (quotas sized for the client
   count),
2. drives a mixed six-paper-query workload from ``--clients``
   concurrent keep-alive HTTP clients spread across tenants, measuring
   sustained QPS and per-request p50/p99 latency (after one warm-up
   pass per query to populate the shared plan cache),
3. snapshots the server's ``/stats`` endpoint,
4. starts a SECOND, deliberately slow server (``REPRO_FAULT=
   slow_checkpoint``) with a one-query quota tenant to prove admission
   control: over-quota bursts are rejected with the typed 429 while the
   in-flight query completes,
5. sends that server SIGTERM mid-query to prove graceful drain: the
   in-flight request still answers 200, the process exits 0,
6. writes the ``BENCH_serve.json`` artifact.

Exits non-zero if any measured request fails, the quota burst sees no
typed rejection, the drain is unclean, or (unless ``--no-qps-floor``)
sustained QPS falls below ``--qps-floor``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.bench.figures import (  # noqa: E402
    Q1_OUTER_FRACTIONS,
    Q23_OUTER_FRACTIONS,
    QUANTITY_EQ,
    _q23_availqty,
)
from repro.tpch import (  # noqa: E402
    TpchConfig,
    generate,
    pick_date_window,
    pick_size_window,
    query1,
    query2,
    query3,
)

SEED = 42


def paper_queries(db):
    """Same instantiation as scripts/bench_sf1.py (smallest paper point)."""
    n_orders = len(db.relation("orders"))
    n_part = len(db.relation("part"))
    lo_d, hi_d = pick_date_window(db, max(4, int(Q1_OUTER_FRACTIONS[0] * n_orders)))
    lo_s, hi_s = pick_size_window(db, max(4, int(Q23_OUTER_FRACTIONS[0] * n_part)))
    availqty = _q23_availqty(db)
    return [
        ("query1", query1(lo_d, hi_d)),
        ("query2a", query2("any", lo_s, hi_s, availqty, QUANTITY_EQ)),
        ("query2b", query2("all", lo_s, hi_s, availqty, QUANTITY_EQ)),
        ("query3a", query3("all", "exists", "a", lo_s, hi_s, availqty, QUANTITY_EQ)),
        ("query3b", query3("all", "not exists", "b", lo_s, hi_s, availqty, QUANTITY_EQ)),
        ("query3c", query3("any", "exists", "c", lo_s, hi_s, availqty, QUANTITY_EQ)),
    ]


# --------------------------------------------------------------------- #
# minimal async HTTP client (keep-alive)
# --------------------------------------------------------------------- #


def _request_bytes(path: str, payload: dict) -> bytes:
    body = json.dumps(payload).encode()
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    return status, json.loads(body) if body else None


async def _one_shot(host, port, path, payload, timeout=60.0):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(_request_bytes(path, payload))
        await writer.drain()
        return await asyncio.wait_for(_read_response(reader), timeout)
    finally:
        writer.close()


async def _get(host, port, path):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode()
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


# --------------------------------------------------------------------- #
# server process management
# --------------------------------------------------------------------- #


def start_server(extra_args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (
            os.path.join(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))), "src"),
            env.get("PYTHONPATH", ""),
        ) if p
    )
    env.update(env_extra or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        + extra_args,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 300
    while True:
        line = proc.stdout.readline()
        if "serving on http://" in line:
            port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
            return proc, port
        if not line or time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError(f"server failed to start: {line!r}")


# --------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------- #


async def run_workload(host, port, queries, clients, requests_each):
    """Drive the mixed workload; return (latencies_ms, errors, per_query)."""
    latencies, errors = [], []
    per_query = {name: [] for name, _ in queries}

    async def client(index: int):
        tenant = f"client-{index % 8}"
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in range(requests_each):
                name, sql = queries[(index + i) % len(queries)]
                started = time.perf_counter()
                writer.write(_request_bytes(
                    "/query", {"sql": sql, "tenant": tenant}))
                await writer.drain()
                status, payload = await _read_response(reader)
                elapsed = (time.perf_counter() - started) * 1000.0
                if status == 200:
                    latencies.append(elapsed)
                    per_query[name].append(elapsed)
                else:
                    errors.append({"status": status, "error": payload,
                                   "query": name})
        finally:
            writer.close()

    await asyncio.gather(*(client(i) for i in range(clients)))
    return latencies, errors, per_query


async def quota_check(host, port, sql, burst):
    """Burst *burst* concurrent requests at a 1-running/0-queued tenant;
    expect typed 429 rejections alongside completed in-flight work."""
    outcomes = await asyncio.gather(
        *(_one_shot(host, port, "/query",
                    {"sql": sql, "tenant": "quota-probe"})
          for _ in range(burst))
    )
    completed = sum(1 for status, _ in outcomes if status == 200)
    rejected = [
        body for status, body in outcomes
        if status == 429
        and body["error"]["type"] == "TenantQuotaExceededError"
    ]
    return {
        "burst": burst,
        "completed": completed,
        "rejected": len(rejected),
        "ok": completed >= 1 and len(rejected) >= 1,
    }


async def drain_check(proc, host, port, sql):
    """SIGTERM mid-query: the in-flight request answers 200, exit is 0."""
    inflight = asyncio.ensure_future(
        _one_shot(host, port, "/query", {"sql": sql, "tenant": "drainer"}))
    await asyncio.sleep(0.3)  # the slow query is now executing
    proc.send_signal(signal.SIGTERM)
    status, _body = await inflight
    loop = asyncio.get_running_loop()
    exit_code = await loop.run_in_executor(None, proc.wait)
    return {
        "inflight_status": status,
        "exit_code": exit_code,
        "ok": status == 200 and exit_code == 0,
    }


def percentile(sorted_values, fraction):
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--clients", type=int, default=64)
    ap.add_argument("--requests", type=int, default=10,
                    help="measured requests per client")
    ap.add_argument("--workers", type=int, default=8)
    ap.add_argument("--qps-floor", type=float, default=50.0,
                    dest="qps_floor")
    ap.add_argument("--no-qps-floor", action="store_true",
                    dest="no_qps_floor",
                    help="report QPS without enforcing the floor")
    ap.add_argument("--out", default="BENCH_serve.json")
    args = ap.parse_args()

    print(f"generating TPC-H sf={args.sf} for query parameters ...",
          flush=True)
    db = generate(TpchConfig(scale_factor=args.sf, seed=SEED))
    queries = paper_queries(db)

    # ---- phase 1: throughput over the mixed workload ------------------ #
    proc, port = start_server([
        "--tpch", str(args.sf), "--seed", str(SEED),
        "--workers", str(args.workers),
        "--queue-size", str(max(256, args.clients * 4)),
        "--max-concurrent", str(args.clients),
        "--max-queued", str(args.clients * 4),
    ])
    try:
        print(f"server on :{port}; warming plan cache ...", flush=True)
        for _name, sql in queries:
            status, body = asyncio.run(_one_shot(
                "127.0.0.1", port, "/query", {"sql": sql}))
            if status != 200:
                raise RuntimeError(f"warm-up failed: {body}")
        print(f"measuring: {args.clients} clients x {args.requests} "
              f"requests ...", flush=True)
        started = time.perf_counter()
        latencies, errors, per_query = asyncio.run(run_workload(
            "127.0.0.1", port, queries, args.clients, args.requests))
        wall_s = time.perf_counter() - started
        _status, stats = asyncio.run(_get("127.0.0.1", port, "/stats"))
        proc.send_signal(signal.SIGTERM)
        bench_exit = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()

    total = args.clients * args.requests
    qps = len(latencies) / wall_s if wall_s > 0 else 0.0
    ordered = sorted(latencies)
    artifact = {
        "benchmark": "serve",
        "scale_factor": args.sf,
        "clients": args.clients,
        "requests_per_client": args.requests,
        "workers": args.workers,
        "total_requests": total,
        "completed": len(latencies),
        "errors": len(errors),
        "wall_s": round(wall_s, 3),
        "qps": round(qps, 1),
        "p50_ms": round(percentile(ordered, 0.50), 3) if ordered else None,
        "p99_ms": round(percentile(ordered, 0.99), 3) if ordered else None,
        "mean_ms": round(statistics.fmean(ordered), 3) if ordered else None,
        "per_query": {
            name: {
                "requests": len(values),
                "mean_ms": round(statistics.fmean(values), 3)
                if values else None,
            }
            for name, values in per_query.items()
        },
        "stats": stats,
        "bench_server_exit": bench_exit,
    }
    print(f"QPS {artifact['qps']}  p50 {artifact['p50_ms']} ms  "
          f"p99 {artifact['p99_ms']} ms  errors {len(errors)}", flush=True)

    # ---- phase 2: admission control + graceful drain ------------------ #
    # a deliberately slow server (every checkpoint sleeps) makes the
    # quota burst and the mid-query SIGTERM deterministic
    tenants_path = args.out + ".tenants.json"
    with open(tenants_path, "w") as handle:
        json.dump({"quota-probe": {"max_concurrent": 1, "max_queued": 0}},
                  handle)
    slow_proc, slow_port = start_server(
        ["--tpch", "0.001", "--seed", str(SEED), "--workers", "2",
         "--tenants", tenants_path],
        env_extra={"REPRO_FAULT": "slow_checkpoint", "REPRO_FAULT_MS": "120"},
    )
    try:
        slow_sql = ("select o_orderkey from orders "
                    "where o_totalprice > 1000")
        artifact["quota_check"] = asyncio.run(quota_check(
            "127.0.0.1", slow_port, slow_sql, burst=4))
        artifact["drain_check"] = asyncio.run(drain_check(
            slow_proc, "127.0.0.1", slow_port, slow_sql))
    finally:
        if slow_proc.poll() is None:
            slow_proc.kill()
        os.unlink(tenants_path)
    print(f"quota: {artifact['quota_check']}", flush=True)
    print(f"drain: {artifact['drain_check']}", flush=True)

    with open(args.out, "w") as handle:
        json.dump(artifact, handle, indent=2)
    print(f"wrote {args.out}", flush=True)

    failures = []
    if errors:
        failures.append(f"{len(errors)} request(s) failed: {errors[:3]}")
    if bench_exit != 0:
        failures.append(f"bench server exited {bench_exit}")
    if not artifact["quota_check"]["ok"]:
        failures.append(f"quota check failed: {artifact['quota_check']}")
    if not artifact["drain_check"]["ok"]:
        failures.append(f"drain check failed: {artifact['drain_check']}")
    if not args.no_qps_floor and qps < args.qps_floor:
        failures.append(f"QPS {qps:.1f} below floor {args.qps_floor}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
