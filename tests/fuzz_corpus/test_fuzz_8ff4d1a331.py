"""Fuzzer regression (minimized by repro.fuzz).

Origin: strategy 'system-a-native' disagreement — 4 row(s) vs oracle's 0
Found at seed=13 iteration=10, then minimized.

Per-operator traces at the minimized case:
oracle 'nested-iteration' trace:
execute(strategy=nested-iteration)  rows=0
  reduce[T1](tables=b0)  rows=4
    Filter  rows=5→4
      RelationSource(table=b0)  rows=5→5  predicate_evals=5
  reduce[T2](tables=b1)  rows=5
  reduce[T3](tables=b2)  rows=1
    Filter  rows=5→1
      RelationSource(table=b2)  rows=5→5  predicate_evals=5
  reduce[T4](tables=b3)  rows=7
  tuple-iteration  rows=4→0  predicate_evals=20
strategy 'system-a-native' trace:
execute(strategy=system-a-native)  rows=4
  reduce[T1](tables=b0)  rows=4
    Filter  rows=5→4
      RelationSource(table=b0)  rows=5→5  predicate_evals=5
  nested-iteration-probe(block=2)  rows=4→4  predicate_evals=24

Replay:  PYTHONPATH=src python -m repro fuzz --seed 13 --iterations 11
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k from t1 b0 where (b0.a < 1 or b0.k <> 2) and b0.k >= "
    "some (select b1.k from t1 b1 where not b1.a <> all (select b2.a from "
    "t3 b2 where b2.b < b0.a and b2.a between -2 and -1 and b2.b = some "
    "(select b3.a from t2 b3)))"
)

STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-vectorized",
    "nested-relational-parallel",
    "nested-relational-optimized",
    "system-a-native",
    "auto",
]


def build_db():
    db = Database()
    db.create_table(
        "t0",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, -2, NULL),
            (1, -3, 2),
            (2, -3, -2),
        ],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, NULL, NULL),
            (1, NULL, NULL),
            (2, NULL, NULL),
            (3, NULL, NULL),
            (4, NULL, NULL),
        ],
        primary_key="k",
    )
    db.create_table(
        "t2",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, NULL, -1),
            (1, -3, NULL),
            (2, 3, 3),
            (3, 2, 3),
            (4, 1, -1),
            (5, NULL, 2),
            (6, 0, NULL),
        ],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, 2, -2),
            (1, NULL, NULL),
            (2, -2, -3),
            (3, 2, 1),
            (4, 1, NULL),
        ],
        primary_key="k",
    )
    return db


LOGIC = "3vl"


def test_all_strategies_agree_with_oracle():
    query = repro.connect(build_db(), logic=LOGIC).prepare(SQL)
    oracle = query.execute(strategy="nested-iteration").sorted()
    for strategy in STRATEGIES:
        result = query.execute(strategy=strategy).sorted()
        assert result == oracle, f"{strategy} disagrees with the oracle"
