#!/usr/bin/env python
"""``auto`` vs the fixed strategies on the six paper queries.

For every figure query (Figures 4-9) this runs each fixed reference
strategy and ``strategy="auto"`` on the same database, records which
strategy ``auto`` ran, writes a ``BENCH_planner.json`` artifact, and
**fails** (exit 1) if ``auto`` is slower than ``1/--min-ratio`` times
the best fixed strategy on any query (default: auto must stay within
1.25x of the best, i.e. at least 0.8x its speed).

Every strategy is measured through a prepared session query — the API
users actually hit — so ``auto`` benefits from the session's memoized
:class:`~repro.core.optimizer.PlannerDecision` exactly as production
traffic does; the first (unmeasured) execution pays the resolution.

Usage::

    REPRO_BENCH_SF=0.01 python scripts/bench_planner.py [--out traces]

Environment:
    REPRO_BENCH_SF       TPC-H scale factor (default 0.01)
    REPRO_BENCH_REPEATS  best-of-N wall times (default 3)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import repro  # noqa: E402
from repro.tpch import query1, query2, query3  # noqa: E402

#: the six figure queries, keyed by artifact stem
PAPER_QUERIES = {
    "fig4_q1": query1("1992-01-01", "1994-06-01"),
    "fig5_q2a": query2("any", 1, 30, 6000, 25),
    "fig6_q2b": query2("all", 1, 30, 6000, 25),
    "fig7_q3a": query3("all", "exists", "a", 1, 30, 6000, 25),
    "fig8_q3b": query3("all", "not exists", "b", 1, 30, 6000, 25),
    "fig9_q3c": query3("any", "exists", "c", 1, 30, 6000, 25),
}

#: fixed reference strategies ``auto`` has to keep up with
FIXED_STRATEGIES = (
    "nested-relational",
    "nested-relational-optimized",
    "nested-relational-vectorized",
)


def best_of(fn, repeats: int) -> float:
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="traces",
                        help="directory for the BENCH_planner.json artifact")
    parser.add_argument("--min-ratio", type=float, default=0.8,
                        help="required best-fixed/auto wall-time ratio per "
                             "query (0.8 = auto within 1.25x of the best)")
    parser.add_argument("--sf", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SF", "0.01")))
    parser.add_argument("--repeats", type=int,
                        default=int(os.environ.get("REPRO_BENCH_REPEATS", "3")))
    args = parser.parse_args(argv)

    print(f"generating TPC-H sf={args.sf} ...", flush=True)
    db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=args.sf, seed=2005))

    queries = {}
    worst_ratio = None
    worst_stem = None
    session = repro.connect(db)
    for stem, sql in PAPER_QUERIES.items():
        prepared = session.prepare(sql)
        chosen = prepared.explain().chosen
        fixed = {}
        for name in FIXED_STRATEGIES:
            prepared.execute(strategy=name)  # warm the plan cache
            fixed[name] = best_of(
                lambda n=name: prepared.execute(strategy=n), args.repeats
            )
        prepared.execute()  # warm-up: pays the one-off planning cost
        auto_seconds = best_of(lambda: prepared.execute(), args.repeats)
        best_name = min(fixed, key=fixed.get)
        ratio = fixed[best_name] / auto_seconds if auto_seconds else float("inf")
        if worst_ratio is None or ratio < worst_ratio:
            worst_ratio, worst_stem = ratio, stem
        queries[stem] = {
            "sql": sql.strip(),
            "chosen": chosen,
            "fixed_seconds": {k: round(v, 6) for k, v in fixed.items()},
            "auto_seconds": round(auto_seconds, 6),
            "best_fixed": best_name,
            "ratio_best_over_auto": round(ratio, 3),
        }
        print(
            f"  {stem}: auto={chosen} {auto_seconds:.4f}s, "
            f"best fixed={best_name} {fixed[best_name]:.4f}s "
            f"(ratio {ratio:.2f})"
        )

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "BENCH_planner.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "bench": "planner",
                "scale_factor": args.sf,
                "repeats": args.repeats,
                "min_ratio": args.min_ratio,
                "fixed_strategies": list(FIXED_STRATEGIES),
                "queries": queries,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    print(f"wrote {path}")

    if worst_ratio < args.min_ratio:
        print(
            f"FAIL: on {worst_stem} auto reaches only "
            f"{worst_ratio:.2f}x the best fixed strategy "
            f"(required {args.min_ratio:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: auto within {1 / args.min_ratio:.2f}x of the best fixed "
        f"strategy on every paper query (worst ratio {worst_ratio:.2f} "
        f"on {worst_stem})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
