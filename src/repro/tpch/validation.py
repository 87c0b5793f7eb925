"""TPC-H data validation: referential integrity and distribution checks.

The benchmark harness's conclusions are only as good as the generated
data, so :func:`validate` audits a database the way a dbgen acceptance
test would: primary-key uniqueness and non-nullness, foreign keys
resolving, value domains (p_size ∈ 1..50, l_quantity ∈ 1..50,
ps_availqty ∈ 1..9999), date ordering along each lineitem
(ship < receipt), and the configured NULL-injection rate staying inside
its tolerance.  Returns a list of human-readable violations (empty =
valid); :func:`assert_valid` raises on the first problem.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..engine.catalog import Database
from ..engine.types import is_null
from .schema import PRIMARY_KEYS


def _column(db: Database, table: str, ref: str) -> list:
    return db.relation(table).column_values(ref)


def _check_pk(db: Database, table: str, issues: List[str]) -> None:
    pk = PRIMARY_KEYS.get(table)
    if pk is None or not db.has_table(table):
        return
    values = _column(db, table, pk)
    nulls = sum(1 for v in values if is_null(v))
    if nulls:
        issues.append(f"{table}.{pk}: {nulls} NULL key(s)")
    non_null = [v for v in values if not is_null(v)]
    if len(set(non_null)) != len(non_null):
        issues.append(f"{table}.{pk}: duplicate keys")


def _check_fk(
    db: Database,
    child: Tuple[str, str],
    parent: Tuple[str, str],
    issues: List[str],
) -> None:
    child_table, child_col = child
    parent_table, parent_col = parent
    if not (db.has_table(child_table) and db.has_table(parent_table)):
        return
    parent_keys = {
        v for v in _column(db, parent_table, parent_col) if not is_null(v)
    }
    dangling = sum(
        1
        for v in _column(db, child_table, child_col)
        if not is_null(v) and v not in parent_keys
    )
    if dangling:
        issues.append(
            f"{child_table}.{child_col}: {dangling} value(s) not in "
            f"{parent_table}.{parent_col}"
        )


def _check_domain(
    db: Database, table: str, ref: str, lo: int, hi: int, issues: List[str]
) -> None:
    if not db.has_table(table):
        return
    bad = sum(
        1
        for v in _column(db, table, ref)
        if not is_null(v) and not (lo <= v <= hi)
    )
    if bad:
        issues.append(f"{table}.{ref}: {bad} value(s) outside [{lo}, {hi}]")


def validate(
    db: Database, expected_null_fraction: Optional[float] = None
) -> List[str]:
    """Audit *db*; return a list of violations (empty when valid)."""
    issues: List[str] = []
    for table in PRIMARY_KEYS:
        _check_pk(db, table, issues)

    _check_fk(db, ("nation", "n_regionkey"), ("region", "r_regionkey"), issues)
    _check_fk(db, ("supplier", "s_nationkey"), ("nation", "n_nationkey"), issues)
    _check_fk(db, ("customer", "c_nationkey"), ("nation", "n_nationkey"), issues)
    _check_fk(db, ("partsupp", "ps_partkey"), ("part", "p_partkey"), issues)
    _check_fk(db, ("partsupp", "ps_suppkey"), ("supplier", "s_suppkey"), issues)
    _check_fk(db, ("orders", "o_custkey"), ("customer", "c_custkey"), issues)
    _check_fk(db, ("lineitem", "l_orderkey"), ("orders", "o_orderkey"), issues)
    _check_fk(db, ("lineitem", "l_partkey"), ("part", "p_partkey"), issues)
    _check_fk(db, ("lineitem", "l_suppkey"), ("supplier", "s_suppkey"), issues)

    _check_domain(db, "part", "p_size", 1, 50, issues)
    _check_domain(db, "lineitem", "l_quantity", 1, 50, issues)
    _check_domain(db, "partsupp", "ps_availqty", 1, 9999, issues)

    if db.has_table("lineitem"):
        rel = db.relation("lineitem")
        ship_pos = rel.schema.index_of("l_shipdate")
        receipt_pos = rel.schema.index_of("l_receiptdate")
        bad_dates = sum(
            1 for row in rel.rows if not row[ship_pos] < row[receipt_pos]
        )
        if bad_dates:
            issues.append(f"lineitem: {bad_dates} row(s) with ship >= receipt")

    if expected_null_fraction is not None and db.has_table("lineitem"):
        values = _column(db, "lineitem", "l_extendedprice")
        if values:
            actual = sum(1 for v in values if is_null(v)) / len(values)
            if abs(actual - expected_null_fraction) > max(
                0.05, expected_null_fraction * 0.5
            ):
                issues.append(
                    "lineitem.l_extendedprice NULL fraction "
                    f"{actual:.3f} far from configured "
                    f"{expected_null_fraction:.3f}"
                )
    return issues


def assert_valid(
    db: Database, expected_null_fraction: Optional[float] = None
) -> None:
    """Raise ``AssertionError`` listing every violation found."""
    issues = validate(db, expected_null_fraction)
    if issues:
        raise AssertionError("TPC-H validation failed:\n  " + "\n  ".join(issues))
