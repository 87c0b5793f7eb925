"""Aggregate-linking NULL matrix: every aggregate θ-comparison ×
pathological inner relation shapes, cross-checked against SQLite.

The scalar-subquery form ``x θ (SELECT agg(...) ...)`` has its own NULL
corners on top of the quantified ones: ``MAX``/``MIN``/``SUM``/``AVG``
over an empty or NULL-only group are NULL (making the comparison
UNKNOWN), while ``COUNT`` is 0 (making it very much defined) — the
asymmetry behind the COUNT bug.  Each cell runs the row and vectorized
strategies and diffs every one against SQLite for the same data, with
a NULL outer operand in the mix throughout.
"""

from __future__ import annotations

import pytest

from repro.engine import Column, Database, NULL
from repro.oracle import cross_check

STRATEGIES = (
    "nested-relational",
    "nested-relational-vectorized",
)

#: inner-relation shapes: name -> rows of inner_t(k, a)
INNER_SHAPES = {
    "empty": [],
    "null-only": [(1, NULL), (2, NULL)],
    "mixed": [(1, 1), (2, NULL), (3, 3)],
    "no-nulls": [(1, 1), (2, 2)],
}

#: aggregate θ-comparisons over outer_t.a vs the inner aggregate
PREDICATES = {
    "eq-max": "outer_t.a = (select max(a) from inner_t)",
    "lt-avg": "outer_t.a < (select avg(a) from inner_t)",
    "ge-sum": "outer_t.a >= (select sum(a) from inner_t)",
    "neq-min": "outer_t.a <> (select min(a) from inner_t)",
    "eq-count-star": "outer_t.a = (select count(*) from inner_t)",
    "eq-count-col": "outer_t.a = (select count(a) from inner_t)",
    "zero-eq-count": "0 = (select count(a) from inner_t)",
    # flipped orientation: the subquery on the left
    "max-le-outer": "(select max(a) from inner_t) <= outer_t.a",
}

#: correlated variants — the inner group depends on the outer row, so
#: empty and NULL-only groups arise per outer tuple
CORRELATED_PREDICATES = {
    "corr-eq-max": (
        "outer_t.a = (select max(a) from inner_t where inner_t.g = outer_t.k)"
    ),
    "corr-lt-avg": (
        "outer_t.a < (select avg(a) from inner_t where inner_t.g = outer_t.k)"
    ),
    "corr-ge-sum": (
        "outer_t.a >= (select sum(a) from inner_t where inner_t.g = outer_t.k)"
    ),
    "corr-count-eq-zero": (
        "(select count(*) from inner_t where inner_t.g = outer_t.k) = 0"
    ),
    "corr-count-col-eq-zero": (
        "(select count(a) from inner_t where inner_t.g = outer_t.k) = 0"
    ),
}

#: correlated inner shapes: rows of inner_t(k, g, a); outer pks are 1..4
CORRELATED_SHAPES = {
    "empty": [],
    # group 1 is NULL-only, group 2 mixed, groups 3/4 empty
    "null-only-group": [(1, 1, NULL), (2, 1, NULL), (3, 2, 2), (4, 2, NULL)],
    "null-group-key": [(1, NULL, 1), (2, NULL, NULL)],
    "dense": [(1, 1, 1), (2, 2, 2), (3, 3, NULL), (4, 4, 4)],
}


def build_db(inner_rows) -> Database:
    db = Database()
    db.create_table(
        "outer_t",
        [Column("k", not_null=True), Column("a")],
        # NULL outer operand: NULL θ agg is UNKNOWN even when the
        # aggregate is defined — except nothing: COUNT never rescues it
        [(1, 1), (2, 2), (3, NULL), (4, 0)],
        primary_key="k",
    )
    db.create_table(
        "inner_t",
        [Column("k", not_null=True), Column("a")],
        inner_rows,
        primary_key="k",
    )
    return db


def build_correlated_db(inner_rows) -> Database:
    db = Database()
    db.create_table(
        "outer_t",
        [Column("k", not_null=True), Column("a")],
        [(1, 1), (2, 2), (3, NULL), (4, 0)],
        primary_key="k",
    )
    db.create_table(
        "inner_t",
        [Column("k", not_null=True), Column("g"), Column("a")],
        inner_rows,
        primary_key="k",
    )
    return db


@pytest.mark.parametrize("shape", sorted(INNER_SHAPES))
@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_aggregate_link_matches_sqlite(shape, predicate):
    db = build_db(INNER_SHAPES[shape])
    sql = f"select k from outer_t where {PREDICATES[predicate]}"
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, f"{predicate} × {shape}:\n{report.describe()}"


@pytest.mark.parametrize("shape", sorted(CORRELATED_SHAPES))
@pytest.mark.parametrize("predicate", sorted(CORRELATED_PREDICATES))
def test_correlated_aggregate_link_matches_sqlite(shape, predicate):
    db = build_correlated_db(CORRELATED_SHAPES[shape])
    sql = f"select k from outer_t where {CORRELATED_PREDICATES[predicate]}"
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, f"{predicate} × {shape}:\n{report.describe()}"


def test_null_only_group_aggregates_to_null():
    """MAX over a non-empty but NULL-only set is NULL — every comparison
    with it is UNKNOWN, so no outer row qualifies."""
    import repro

    db = build_db(INNER_SHAPES["null-only"])
    sql = "select k from outer_t where outer_t.a = (select max(a) from inner_t)"
    for strategy in STRATEGIES:
        assert repro.connect(db).execute(sql, strategy=strategy).rows == [], strategy


def test_count_of_column_skips_nulls():
    """count(a) over the NULL-only set is 0 while count(*) is 2 — the
    matrix's sharpest cell, pinned explicitly."""
    import repro

    db = build_db(INNER_SHAPES["null-only"])
    zero = "select k from outer_t where outer_t.a = (select count(a) from inner_t)"
    two = "select k from outer_t where outer_t.a = (select count(*) from inner_t)"
    for strategy in STRATEGIES:
        assert sorted(repro.connect(db).execute(zero, strategy=strategy).rows) == [(4,)]
        assert sorted(repro.connect(db).execute(two, strategy=strategy).rows) == [(2,)]
