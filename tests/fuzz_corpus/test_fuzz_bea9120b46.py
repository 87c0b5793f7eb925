"""Fuzzer regression (minimized by repro.fuzz).

Origin: strategy 'system-a-native' disagreement — NULL NOT IN {nonempty} kept by the negated antijoin (fixed: the plan now demands NOT NULL on the linking side too)
Found at seed=7 iteration=9, then minimized.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 7 --iterations 10
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k from t2 b0 where b0.b not in (select b1.k from t3 b1)"
)

STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "system-a-native",
    "auto",
    "nested-relational-bottomup",
    "count-rewrite",
    "boolean-aggregate",
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
        [],
        primary_key="k",
    )
    db.create_table(
        "t2",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, NULL, NULL),
        ],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (2, 0, 3),
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
