#!/usr/bin/env python
"""TPC-H workload tour: the paper's three benchmark queries.

Generates a small deterministic TPC-H database, runs Query 1, Query 2
(both variants) and Query 3 (all nine combinations) through the nested
relational strategies and the System A emulation, printing results,
chosen plans and cost counters.

Run:  python examples/tpch_subqueries.py [scale_factor]
"""

from __future__ import annotations

import sys

import repro
from repro.baselines.native import SystemAEmulationStrategy
from repro.engine.metrics import collect
from repro.tpch import (
    TpchConfig,
    generate,
    pick_availqty,
    pick_date_window,
    pick_size_window,
    query1,
    query2,
    query3,
)


def run(sql: str, db, label: str) -> None:
    prepared = repro.connect(db).prepare(sql)
    query = prepared.query
    print(f"\n--- {label} ---")
    print(query.describe())
    print("System A emulation plan:")
    print("  " + SystemAEmulationStrategy().explain(query, db).replace("\n", "\n  "))
    oracle = prepared.execute(strategy="nested-iteration").sorted()
    for strategy in ("nested-relational-optimized", "system-a-native", "auto"):
        with collect() as metrics:
            result = prepared.execute(strategy=strategy).sorted()
        status = "ok" if result == oracle else "*** WRONG ***"
        print(
            f"  {strategy:32s} rows={len(result):4d} {status}  "
            f"weighted-cost={metrics.weighted_cost():>9d}"
        )


def main() -> None:
    sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.002
    print(f"Generating TPC-H at scale factor {sf} ...")
    db = generate(TpchConfig(scale_factor=sf, seed=7))
    print(db.summary())

    # Query 1: one-level ALL, block size controlled by the date window.
    lo, hi = pick_date_window(db, max(10, len(db.relation("orders")) // 20))
    run(query1(lo, hi), db, f"Query 1 (orders in [{lo}, {hi}))")

    # Query 2: two-level linear; ANY (2a) and ALL (2b).
    size_lo, size_hi = pick_size_window(db, max(10, len(db.relation("part")) // 4))
    availqty = pick_availqty(db, max(10, len(db.relation("partsupp")) // 10))
    run(query2("any", size_lo, size_hi, availqty, 25), db, "Query 2a (ANY / NOT EXISTS)")
    run(query2("all", size_lo, size_hi, availqty, 25), db, "Query 2b (ALL / NOT EXISTS)")

    # Query 3: tree-correlated; all paper combinations.
    for quantifier, existential, tag in (
        ("all", "exists", "3a"),
        ("all", "not exists", "3b"),
        ("any", "exists", "3c"),
    ):
        for variant in "abc":
            run(
                query3(quantifier, existential, variant,
                       size_lo, size_hi, availqty, 25),
                db,
                f"Query {tag}({variant}) ({quantifier.upper()} / "
                f"{existential.upper()})",
            )
    print("\nAll strategies agreed with the tuple-iteration oracle.")


if __name__ == "__main__":
    main()
