"""Seeded corpus case: nested IN chains under EXISTS.

Deterministic generator output (seed=42 iteration=6), checked in as a corpus seed.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 42 --iterations 7
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k, b0.a from t1 b0 where b0.b is not null and exists "
    "(select b1.k from t1 b1 where b1.a in (select b2.b from t1 b2 where "
    "b2.b > -3 and b2.k = some (select b3.k from t3 b3 where b3.b = b2.k) "
    "and b2.k < all (select b4.b from t0 b4 where b2.k = b4.b and b4.k "
    "between -3 and 3)) and not exists (select * from t1 b5 where not "
    "exists (select b6.b from t1 b6 where b1.a < b6.b and b6.a = b0.k and "
    "b6.b <= b6.b) and b5.b > some (select b7.a from t0 b7 where b1.a >= "
    "b7.b)))"
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
        [],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, -2, 1),
            (1, -3, NULL),
            (2, 0, -2),
            (3, -3, 2),
        ],
        primary_key="k",
    )
    db.create_table(
        "t2",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, 1, -3),
        ],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, 0, NULL),
            (1, NULL, 2),
            (2, NULL, NULL),
            (3, 1, 3),
            (4, 2, -2),
            (5, -3, 3),
            (6, -3, NULL),
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
