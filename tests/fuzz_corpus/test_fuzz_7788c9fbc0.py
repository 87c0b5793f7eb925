"""Fuzzer regression (minimized by repro.fuzz).

Origin: strategy 'nested-relational-bottomup' error — raised SchemaError: nest: nesting and nested attribute sets must be disjoint (fixed: push-down reads the linked value off the group key)
Found at seed=7 iteration=24, then minimized.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 7 --iterations 25
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k from t2 b0 where b0.k >= some (select b1.k from t3 b1 "
    "where b1.k = b0.k)"
)

STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "system-a-native",
    "auto",
    "nested-relational-bottomup",
    "nested-relational-positive-rewrite",
    "classical-unnesting",
    "count-rewrite",
    "boolean-aggregate",
    "aggregate-rewrite",
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
        [],
        primary_key="k",
    )
    db.create_table(
        "t3",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [],
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
