"""Fuzzer regression (minimized by repro.fuzz).

Origin: strategy 'nested-relational-bottomup' error — raised SchemaError: duplicate component names in nested schema (fixed: push-down nests by each inner column once)
Found at seed=7 iteration=185, then minimized.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 7 --iterations 186
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k from t0 b0 where exists (select b2.k from t0 b2 where "
    "b2.b = b0.a and b2.b = b0.a)"
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
