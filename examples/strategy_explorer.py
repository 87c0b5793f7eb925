#!/usr/bin/env python
"""Strategy explorer: how query shape drives which strategies apply.

Feeds a spectrum of query shapes (flat, one-level, linear, linearly
correlated, tree-shaped, positive-only, negative, mixed) through every
registered strategy, printing for each: the shape classification, the
strategy ``auto`` picks on the row backend (its rule does not look at
the shape), the System A emulation's plan, and a cost comparison across
all applicable strategies.

Run:  python examples/strategy_explorer.py
"""

from __future__ import annotations

import repro
from repro.baselines import (
    BooleanAggregateStrategy,
    ClassicalUnnestingStrategy,
    CountRewriteStrategy,
)
from repro.baselines.native import SystemAEmulationStrategy
from repro.core.optimizer import choose
from repro.engine import Column, Database, NULL
from repro.engine.metrics import collect
from repro.errors import PlanError, UnsoundRewriteError


def build_db() -> Database:
    db = Database()
    db.create_table(
        "r",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [(i, i % 7, i % 5) for i in range(60)],
        primary_key="k",
    )
    db.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("v")],
        [(i, i % 60, (i * 3) % 11 if i % 9 else NULL) for i in range(180)],
        primary_key="k",
    )
    db.create_table(
        "t",
        [Column("k", not_null=True), Column("sk"), Column("w")],
        [(i, i % 180, i % 13) for i in range(240)],
        primary_key="k",
    )
    db.create_hash_index("s", ["rk"])
    db.create_hash_index("t", ["sk"])
    return db


SHAPES = [
    ("flat", "select r.k from r where r.a > 3"),
    (
        "one-level positive (IN)",
        "select r.k from r where r.a in (select s.v from s where s.rk = r.k)",
    ),
    (
        "one-level negative (NOT IN)",
        "select r.k from r where r.a not in (select s.v from s where s.rk = r.k)",
    ),
    (
        "two-level linearly correlated (ALL / NOT EXISTS)",
        """select r.k from r where r.a > all
           (select s.v from s where s.rk = r.k and not exists
              (select * from t where t.sk = s.k))""",
    ),
    (
        "two-level, inner block correlated to the root (paper Query 3 shape)",
        """select r.k from r where r.a > all
           (select s.v from s where s.rk = r.k and exists
              (select * from t where t.sk = s.k and t.w <> r.b))""",
    ),
    (
        "tree query (two subqueries in one block, mixed operators)",
        """select r.k from r
           where exists (select * from s where s.rk = r.k)
             and r.b not in (select t.w from t where t.sk = r.k)""",
    ),
]

ALL_STRATEGIES = [
    "nested-iteration",
    "nested-relational",
    "nested-relational-optimized",
    "nested-relational-bottomup",
    "nested-relational-positive-rewrite",
    "classical-unnesting",
    "count-rewrite",
    "boolean-aggregate",
    "system-a-native",
]


def main() -> None:
    db = build_db()
    for label, sql in SHAPES:
        prepared = repro.connect(db).prepare(sql)
        query = prepared.query
        print("=" * 72)
        print(f"{label}")
        print("=" * 72)
        print(query.describe())
        print(f"auto picks: {choose(query, db, backend='row').chosen}")
        if query.nesting_depth > 0:
            print("System A plan:")
            print(
                "  "
                + SystemAEmulationStrategy()
                .explain(query, db)
                .replace("\n", "\n  ")
            )
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        print(f"{'strategy':40s} {'rows':>5s} {'weighted cost':>14s}")
        for name in ALL_STRATEGIES:
            try:
                with collect() as metrics:
                    result = prepared.execute(strategy=name).sorted()
            except (PlanError, UnsoundRewriteError) as error:
                reason = str(error).split(";")[0]
                print(f"{name:40s}   n/a  ({reason[:60]})")
                continue
            status = "" if result == oracle else "  *** WRONG ***"
            print(
                f"{name:40s} {len(result):5d} {metrics.weighted_cost():>14d}"
                f"{status}"
            )
        print()


if __name__ == "__main__":
    main()
