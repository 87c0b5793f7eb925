"""Adapter protocol, dialect rendering, bag diffing, known-divergence
registry — the repro.oracle building blocks."""

from __future__ import annotations

import datetime

import pytest

import repro
from repro.engine import Column, Database, NULL
from repro.errors import (
    OracleDivergenceError,
    OracleError,
    OracleUnavailableError,
    OracleUnsupportedError,
)
from repro.oracle import (
    InternalAdapter,
    KnownDivergence,
    SQLITE,
    adapter_names,
    canonical_value,
    clear_registered,
    comparable,
    cross_check,
    diff_bags,
    engine_available,
    find_known,
    make_adapter,
    register_known_divergence,
    registry_report,
    render_for,
    verify_or_raise,
)
from repro.sql import parse


@pytest.fixture
def small_db() -> Database:
    db = Database()
    db.create_table(
        "t0",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [(1, 1, 2), (2, NULL, 0), (3, -1, NULL)],
        primary_key="k",
    )
    db.create_table(
        "t1",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [(1, 2, NULL), (2, NULL, 1)],
        primary_key="k",
    )
    return db


# ---------------------------------------------------------------------- #
# registry / availability
# ---------------------------------------------------------------------- #


def test_adapter_registry_names():
    assert adapter_names() == ["duckdb", "internal", "sqlite"]


def test_sqlite_always_available():
    assert engine_available("sqlite")
    assert engine_available("internal")


def test_unknown_engine_raises():
    with pytest.raises(OracleUnavailableError):
        make_adapter("postgres")
    assert not engine_available("postgres")


def test_duckdb_gated_not_crashing():
    # whichever way the container is built, the answer is a clean bool
    assert engine_available("duckdb") in (True, False)


# ---------------------------------------------------------------------- #
# the sqlite adapter
# ---------------------------------------------------------------------- #


def test_sqlite_adapter_roundtrips_values(small_db):
    with make_adapter("sqlite", small_db) as adapter:
        rows = adapter.execute_sql('select "a" from "t0" order by "k"')
        assert rows == [(1,), (None,), (-1,)]


def test_sqlite_adapter_execute_renders_dialect(small_db):
    stmt = parse("select a from t0 where a > 0")
    with make_adapter("sqlite", small_db) as adapter:
        rows, dialect_sql, seconds = adapter.execute(stmt)
    assert rows == [(1,)]
    assert '"t0"' in dialect_sql
    assert seconds >= 0


def test_sqlite_adapter_reload_replaces_tables(small_db):
    adapter = make_adapter("sqlite", small_db)
    adapter.load(small_db)  # idempotent: DROP + CREATE
    assert len(adapter.execute_sql('select * from "t0"')) == 3
    adapter.close()


def test_sqlite_adapter_rejects_bad_sql(small_db):
    with make_adapter("sqlite", small_db) as adapter:
        with pytest.raises(OracleError):
            adapter.execute_sql("select nonsense from nowhere")


def test_sqlite_explain_returns_plan(small_db):
    with make_adapter("sqlite", small_db) as adapter:
        plan = adapter.explain('select * from "t0"')
    assert "SCAN" in plan


def test_internal_adapter_matches_engine(small_db):
    with make_adapter("internal", small_db) as adapter:
        rows, _, _ = adapter.execute_text("select a from t0 where a > 0")
    assert rows == [(1,)]
    assert isinstance(adapter, InternalAdapter)


# ---------------------------------------------------------------------- #
# dialect rendering
# ---------------------------------------------------------------------- #


def test_dialect_quotes_identifiers():
    stmt = parse("select a from t0 where t0.a = 1")
    text = render_for(stmt, SQLITE)
    assert '"a"' in text and '"t0"."a"' in text


def test_dialect_integer_division_promoted(small_db):
    # our engine and DuckDB use true division; sqlite must agree
    reports = cross_check(
        small_db, "select k from t0 where (k / 2) > 0.9",
        strategies=("nested-iteration",),
    )
    assert reports[0].ok, reports[0].describe()
    assert "* 1.0" in reports[0].dialect_sql


def test_dialect_quantified_rewrite_is_3vl(small_db):
    stmt = parse("select k from t0 where a > some (select a from t1)")
    text = render_for(stmt, SQLITE)
    assert "case when exists" in text
    assert "is null" in text


def test_comparable_rejects_bare_limit():
    with pytest.raises(OracleUnsupportedError):
        comparable(parse("select a from t0 limit 3"))


# ---------------------------------------------------------------------- #
# canonicalization and bag diffing
# ---------------------------------------------------------------------- #


def test_canonical_value_unifies_null_markers():
    assert canonical_value(None) == canonical_value(NULL)


def test_canonical_value_unifies_numerics():
    assert canonical_value(1) == canonical_value(1.0) == canonical_value(True)
    assert canonical_value(0.1) != canonical_value(0.2)


def test_canonical_value_dates_as_iso_text():
    day = datetime.date(1995, 3, 14)
    assert canonical_value(day) == canonical_value("1995-03-14")


def test_diff_bags_agreement_is_none():
    assert diff_bags([(1, NULL)], [(1.0, None)]) is None


def test_diff_bags_respects_multiplicity():
    diff = diff_bags([(1,), (1,)], [(1,)])
    assert diff is not None
    assert diff.ours_multiplicity == 2
    assert diff.theirs_multiplicity == 1
    assert diff.extra == 1 and diff.missing == 0
    assert "x2" in diff.describe()


def test_diff_bags_order_insensitive():
    assert diff_bags([(1,), (2,)], [(2,), (1,)]) is None


# ---------------------------------------------------------------------- #
# cross_check / verify_or_raise
# ---------------------------------------------------------------------- #


def test_cross_check_multiple_strategies(small_db):
    reports = cross_check(
        small_db,
        "select k from t0 where exists (select k from t1 where t1.a = t0.a)",
        strategies=("nested-iteration", "nested-relational", "auto"),
    )
    assert len(reports) == 3
    assert all(r.ok for r in reports)
    verify_or_raise(reports)  # no-op on agreement


def test_cross_check_labels_the_backend(small_db):
    (report,) = cross_check(
        small_db,
        "select k from t0 where a is not null",
        strategies=("nested-relational-vectorized",),
        backend="vector",
    )
    assert report.strategy == "nested-relational-vectorized@vector"
    assert report.ok


def test_verify_or_raise_carries_comparison(small_db):
    reports = cross_check(
        small_db, "select a from t0", strategies=("nested-iteration",)
    )
    # forge a divergence: claim sqlite saw one extra row
    report = reports[0]
    forged = diff_bags([(1,)], [(1,), (2,)])
    report.diff = forged
    with pytest.raises(OracleDivergenceError) as info:
        verify_or_raise([report])
    assert info.value.comparison is report


# ---------------------------------------------------------------------- #
# known-divergence registry
# ---------------------------------------------------------------------- #


def test_builtin_limit_divergence_matches():
    stmt = parse("select a from t0 limit 2")
    known = find_known("select a from t0 limit 2", "sqlite", stmt)
    assert known is not None and known.key == "limit-without-total-order"


def test_registered_divergence_by_digest():
    sql = "select a from t0 where a = 42"
    try:
        register_known_divergence(
            KnownDivergence(
                key="test-entry",
                engines=("sqlite",),
                reason="synthetic registry test",
                sql_digest=repro.oracle.sql_digest(sql),
            )
        )
        assert find_known(sql, "sqlite").key == "test-entry"
        # engine scoping: a duckdb lookup must not match
        assert find_known(sql, "duckdb") is None
        assert "test-entry" in registry_report()
    finally:
        clear_registered()
    assert find_known(sql, "sqlite") is None
