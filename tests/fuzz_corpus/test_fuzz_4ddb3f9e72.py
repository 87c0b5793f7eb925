"""Seeded corpus case: tree-shaped query, EXISTS over NOT IN.

Deterministic generator output (seed=42 iteration=0), checked in as a corpus seed.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 42 --iterations 1
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k, b0.b from t3 b0 where exists (select * from t3 b1 where "
    "b0.k = b1.k and b1.a not in (select b2.a from t2 b2 where b2.a = "
    "b1.k and b2.b in (select b3.a from t1 b3 where b2.k = b3.b) and b2.k "
    "in (select b4.k from t2 b4 where b4.k <> 0)))"
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
            (0, NULL, -1),
            (1, -3, 3),
            (2, -2, -1),
            (3, -2, 1),
            (4, NULL, NULL),
            (5, 2, 1),
        ],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, -1, 3),
            (1, -2, NULL),
            (2, 3, 0),
            (3, -3, 1),
            (4, 0, -1),
            (5, -2, 3),
        ],
        primary_key="k",
    )
    db.create_table(
        "t2",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, NULL, NULL),
            (1, NULL, NULL),
            (2, NULL, NULL),
            (3, NULL, NULL),
        ],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, -1, -1),
            (1, NULL, NULL),
            (2, 3, 0),
            (3, NULL, NULL),
            (4, -3, 1),
            (5, 2, NULL),
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
