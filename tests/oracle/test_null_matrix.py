"""NULL-semantics matrix: every linking operator × pathological inner
relation shapes, cross-checked against SQLite.

The corners classical unnesting gets wrong — and the exact 3VL behavior
the paper's linking predicates must reproduce — all hinge on how the
inner relation's NULLs flow through IN / NOT IN / θ SOME / θ ALL /
EXISTS / NOT EXISTS.  Each cell of the matrix runs the row and
vectorized evaluation strategies and diffs every one against SQLite's
answer for the same data.
"""

from __future__ import annotations

import pytest

from repro.engine import Column, Database, NULL
from repro.oracle import cross_check

STRATEGIES = (
    "nested-relational",
    "nested-relational-vectorized",
)

#: inner-relation shapes: name -> rows of inner(k, a)
INNER_SHAPES = {
    "empty": [],
    "null-only": [(1, NULL), (2, NULL)],
    "mixed": [(1, 1), (2, NULL), (3, 3)],
    "no-nulls": [(1, 1), (2, 2)],
}

#: the six linking operators over outer.a vs inner.a
PREDICATES = {
    "in": "outer_t.a in (select a from inner_t)",
    "not-in": "outer_t.a not in (select a from inner_t)",
    "eq-some": "outer_t.a = some (select a from inner_t)",
    "neq-all": "outer_t.a <> all (select a from inner_t)",
    "gt-all": "outer_t.a > all (select a from inner_t)",
    "lt-some": "outer_t.a < some (select a from inner_t)",
    "exists": "exists (select a from inner_t where inner_t.a = outer_t.a)",
    "not-exists": "not exists (select a from inner_t where inner_t.a = outer_t.a)",
}


def build_db(inner_rows) -> Database:
    db = Database()
    db.create_table(
        "outer_t",
        [Column("k", not_null=True), Column("a")],
        # a NULL outer operand is its own corner: NULL IN (...) is never
        # TRUE, and NULL θ ALL (empty) is still vacuously TRUE
        [(1, 1), (2, 2), (3, NULL), (4, 99)],
        primary_key="k",
    )
    db.create_table(
        "inner_t",
        [Column("k", not_null=True), Column("a")],
        inner_rows,
        primary_key="k",
    )
    return db


@pytest.mark.parametrize("shape", sorted(INNER_SHAPES))
@pytest.mark.parametrize("operator", sorted(PREDICATES))
def test_linking_operator_matches_sqlite(shape, operator):
    db = build_db(INNER_SHAPES[shape])
    sql = f"select k from outer_t where {PREDICATES[operator]}"
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, f"{operator} × {shape}:\n{report.describe()}"


def test_vacuous_all_is_true_everywhere():
    """x θ ALL (empty) is TRUE for every x, including NULL x — the
    classical COUNT-bug corner, pinned against SQLite explicitly."""
    db = build_db(INNER_SHAPES["empty"])
    sql = "select k from outer_t where outer_t.a > all (select a from inner_t)"
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok and report.ours_rows == 4, report.describe()


def test_not_in_null_inner_filters_everything():
    """x NOT IN (..., NULL, ...) is never TRUE — both engines must
    return the empty relation."""
    db = build_db(INNER_SHAPES["null-only"])
    sql = "select k from outer_t where outer_t.a not in (select a from inner_t)"
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok and report.ours_rows == 0, report.describe()
