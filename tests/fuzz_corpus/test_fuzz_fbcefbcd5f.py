"""Seeded corpus case: NOT IN over a subquery with an empty table in scope.

Deterministic generator output (seed=42 iteration=24), checked in as a corpus seed.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 42 --iterations 25
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k, b0.b from t0 b0 where b0.b not in (select b1.a from t3 "
    "b1 where b1.a <> b0.b and b1.a in (select b2.k from t1 b2 where b2.k "
    "= b0.a and b2.b = -3 and exists (select b3.a from t2 b3 where b1.a "
    ">= b3.k))) and b0.k not in (select b4.k from t0 b4)"
)

STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
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
            (0, 2, 1),
        ],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, -3, NULL),
            (1, 3, -2),
            (2, -1, NULL),
            (3, NULL, 3),
            (4, NULL, -1),
            (5, NULL, 0),
        ],
        primary_key="k",
    )
    db.create_table(
        "t2",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, -2, NULL),
            (1, -3, NULL),
            (2, -3, 2),
            (3, -2, -2),
            (4, 1, 0),
            (5, -1, NULL),
            (6, 1, NULL),
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
