"""Seeded corpus case: mixed >= ALL with deep positive/negative links.

Deterministic generator output (seed=42 iteration=1), checked in as a corpus seed.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 42 --iterations 2
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k from t0 b0 where b0.a >= all (select b1.a from t1 b1 "
    "where b1.a >= b0.b and b1.b in (1, -2) and exists (select b2.b from "
    "t3 b2 where b0.k = b2.a and b2.k in (2, 3, 3) and b2.b not in "
    "(select b3.a from t2 b3 where b1.b < b3.b and b3.a <> 2))) and b0.a "
    "not in (select b4.a from t3 b4 where b0.a <> b4.b and exists (select "
    "b5.a from t3 b5 where b5.b in (select b6.k from t1 b6 where b4.b <> "
    "b6.a)))"
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
            (0, 3, 1),
            (1, 3, 2),
            (2, 3, 0),
            (3, -3, NULL),
        ],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, 0, NULL),
        ],
        primary_key="k",
    )
    db.create_table(
        "t2",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, NULL, 1),
            (1, 0, 0),
            (2, 0, 3),
            (3, 3, 2),
            (4, 0, 2),
            (5, 0, 0),
            (6, NULL, -2),
            (7, 1, 0),
        ],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, NULL, 1),
            (1, 2, -1),
            (2, -1, -3),
            (3, 2, -2),
            (4, NULL, NULL),
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
