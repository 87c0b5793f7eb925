"""COUNT-bug seed: HAVING count(*) membership with NULL group keys.

Deterministic generator output (seed=0 iteration=0), checked in as a corpus seed.

Replay:  PYTHONPATH=src python -m repro fuzz --seed 0 --iterations 1
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
    "select b0.k from t0 b0 where b0.a in (select b1.a from t1 b1 group "
    "by b1.a having count(*) >= 2)"
)

STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-vectorized",
    "nested-relational-parallel",
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
        [
            (0, 1, NULL),
            (1, 2, 0),
            (2, NULL, 1),
        ],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [
            (0, 1, 1),
            (1, 1, NULL),
            (2, 2, 2),
            (3, NULL, 0),
            (4, NULL, 1),
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


def test_agrees_with_external_oracle():
    import pytest

    from repro.oracle import cross_check, engine_available

    engine = "sqlite"
    if not engine_available(engine):
        pytest.skip(f"{engine} not installed")
    db = build_db()
    for report in cross_check(db, SQL, engine=engine, strategies=STRATEGIES):
        assert report.acceptable, report.describe()
