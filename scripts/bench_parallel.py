#!/usr/bin/env python
"""Thread scaling of the vectorized strategy on Figure 4 (CI gate).

Runs Figure 4 (Query 1, one-level ``> ALL``) with
``nested-relational-vectorized`` at 1 and at N morsel workers on the
same database, captures per-operator traces (morsel spans included),
writes a ``BENCH_parallel_fig4.json`` artifact validated against
``schemas/trace.schema.json``, prints the measured scaling at every
series point, and **fails** (exit 1) if N workers are slower than one
by more than the noise allowance (``threads=1`` / ``threads=N``
wall-time ratio below ``--min-ratio``, default 0.9).

There is one kernel family, so this measures threads and nothing else:
morsels binary-search a shared build side and evaluate residuals and
linking predicates concurrently, while key factorization, the build
sort and the output gathers stay on the dispatching thread.  Expect a
ratio near 1 under the GIL; the gate is "no regression", not a speedup.

Usage::

    REPRO_BENCH_SF=0.1 python scripts/bench_parallel.py [--out traces/]

Environment:
    REPRO_BENCH_SF       TPC-H scale factor (default 0.1)
    REPRO_BENCH_REPEATS  best-of-N wall times (default 3)
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.bench import (  # noqa: E402
    capturing_traces,
    default_db,
    figure4_query1,
    write_bench_artifact,
)
from repro.engine.vector.strategy import (  # noqa: E402
    VectorizedNestedRelationalStrategy,
)
from repro.strategies import register  # noqa: E402

STRATEGY = "nested-relational-vectorized"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="traces",
                        help="directory for the BENCH_*.json artifact")
    parser.add_argument("--name", default="parallel_fig4",
                        help="artifact name: writes BENCH_<name>.json")
    parser.add_argument("--threads", type=int, default=4,
                        help="worker count compared with one worker")
    parser.add_argument("--min-ratio", type=float, default=0.9,
                        help="required threads=1 / threads=N wall-time "
                             "ratio per point (no-regression floor)")
    parser.add_argument("--sf", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SF", "0.1")))
    parser.add_argument("--repeats", type=int,
                        default=int(os.environ.get("REPRO_BENCH_REPEATS", "3")))
    args = parser.parse_args(argv)

    one = f"{STRATEGY}@1"
    many = f"{STRATEGY}@{args.threads}"
    for name, threads in ((one, 1), (many, args.threads)):
        register(name, backend="vector", replace=True,
                 description=f"bench variant: {threads} worker(s)")(
            lambda threads=threads: VectorizedNestedRelationalStrategy(
                threads=threads
            )
        )
    strategies = (one, many)

    print(f"generating TPC-H sf={args.sf} ...", flush=True)
    db = default_db(sf=args.sf)
    with capturing_traces():
        experiment = figure4_query1(db, strategies=strategies,
                                    repeats=args.repeats)

    print(experiment.format_table("seconds"))
    print()
    print(experiment.format_table("cost"))
    print()

    artifact = write_bench_artifact(args.name, [experiment], args.out,
                                    args.sf)
    print(f"wrote {artifact}")
    validator = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "validate_trace.py")
    subprocess.run([sys.executable, validator, artifact], check=True)

    ratios = experiment.speedup(one, many)
    for point, ratio in zip(experiment.points, ratios):
        print(f"  {point.label}: threads={args.threads} runs at "
              f"{ratio:.2f}x the speed of threads=1")
    worst = min(ratios)
    if worst < args.min_ratio:
        print(
            f"FAIL: threads={args.threads} regresses to {worst:.2f}x of "
            f"threads=1 (floor {args.min_ratio:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"OK: threads={args.threads} >= {args.min_ratio:.2f}x threads=1 at "
        f"every point (worst {worst:.2f}x, best {max(ratios):.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
