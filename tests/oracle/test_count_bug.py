"""The COUNT bug, pinned against SQLite.

Kim's aggregate-rewrite of a correlated ``COUNT(*)`` subquery joins the
outer and inner relations before aggregating — which silently drops
outer tuples whose inner group is *empty*, exactly the tuples a
``count(*) = 0`` predicate exists to select.  The nested-relational
approach never leaves the outer tuple, so the zero-count groups survive
by construction.  Every test here runs the row and vectorized
evaluation strategies and diffs each against SQLite's answer for the
same data.
"""

from __future__ import annotations

import pytest

import repro
from repro.engine import Column, Database, NULL
from repro.oracle import cross_check

STRATEGIES = (
    "nested-relational",
    "nested-relational-vectorized",
)


def build_db(emp_rows) -> Database:
    """Departments with and without employees; dept 30 has none."""
    db = Database()
    db.create_table(
        "dept",
        [Column("k", not_null=True), Column("budget")],
        [(10, 2), (20, 0), (30, 0), (40, NULL)],
        primary_key="k",
    )
    db.create_table(
        "emp",
        [Column("k", not_null=True), Column("dept"), Column("salary")],
        emp_rows,
        primary_key="k",
    )
    return db


#: employee shapes: name -> rows of emp(k, dept, salary)
EMP_SHAPES = {
    # dept 30 and 40 have zero employees — the COUNT-bug rows
    "some-empty-groups": [(1, 10, 5), (2, 10, 7), (3, 20, NULL)],
    # every department's group is empty
    "all-empty": [],
    # a NULL grouping key never matches any department
    "null-dept-only": [(1, NULL, 5), (2, NULL, NULL)],
    "mixed": [(1, 10, 5), (2, NULL, 7), (3, 20, NULL), (4, 20, 3)],
}

#: correlated-aggregate predicates over the department's employee group
PREDICATES = {
    "count-eq-zero": (
        "(select count(*) from emp e where e.dept = d.k) = 0"
    ),
    "zero-eq-count": (
        "0 = (select count(*) from emp e where e.dept = d.k)"
    ),
    "count-eq-budget": (
        "d.budget = (select count(*) from emp e where e.dept = d.k)"
    ),
    "count-ge-one": (
        "(select count(*) from emp e where e.dept = d.k) >= 1"
    ),
    # count(salary) skips NULLs, count(*) does not — dept 20's group
    # in "some-empty-groups" distinguishes the two
    "count-col-eq-zero": (
        "(select count(e.salary) from emp e where e.dept = d.k) = 0"
    ),
}


@pytest.mark.parametrize("shape", sorted(EMP_SHAPES))
@pytest.mark.parametrize("predicate", sorted(PREDICATES))
def test_correlated_count_matches_sqlite(shape, predicate):
    db = build_db(EMP_SHAPES[shape])
    sql = f"select d.k from dept d where {PREDICATES[predicate]}"
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, f"{predicate} × {shape}:\n{report.describe()}"


def test_zero_count_departments_survive():
    """The headline case: departments with no employees are exactly the
    ones ``count(*) = 0`` must return."""
    db = build_db(EMP_SHAPES["some-empty-groups"])
    sql = (
        "select d.k from dept d "
        "where (select count(*) from emp e where e.dept = d.k) = 0"
    )
    for strategy in STRATEGIES:
        result = repro.connect(db).execute(sql, strategy=strategy)
        assert sorted(result.rows) == [(30,), (40,)], strategy
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, report.describe()


def test_count_bug_shape_under_every_strategy():
    """Every *always-applicable* strategy — not just the three backends —
    agrees on the COUNT-bug shape."""
    from repro.fuzz import ALWAYS_STRATEGIES, ORACLE

    db = build_db(EMP_SHAPES["mixed"])
    sql = (
        "select d.k from dept d "
        "where d.budget = (select count(*) from emp e where e.dept = d.k)"
    )
    session = repro.connect(db)
    oracle = session.execute(sql, strategy=ORACLE).sorted()
    for strategy in ALWAYS_STRATEGIES:
        result = session.execute(sql, strategy=strategy).sorted()
        assert result == oracle, f"{strategy} disagrees with the oracle"


@pytest.mark.parametrize("shape", sorted(EMP_SHAPES))
def test_having_count_with_empty_groups(shape):
    """``HAVING count(*)`` filters *existing* groups — a department with
    no employees contributes no group at all, the dual of the COUNT-bug
    row surviving a scalar ``= 0`` comparison."""
    db = build_db(EMP_SHAPES[shape])
    sql = (
        "select d.k from dept d where d.k in "
        "(select e.dept from emp e group by e.dept having count(*) >= 1)"
    )
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, f"having × {shape}:\n{report.describe()}"
    if shape == "all-empty":
        result = repro.connect(db).execute(sql)
        assert result.rows == []


def test_having_count_zero_is_unsatisfiable():
    """``GROUP BY ... HAVING count(*) = 0`` can never hold: a group only
    exists because at least one row landed in it."""
    db = build_db(EMP_SHAPES["mixed"])
    sql = (
        "select d.k from dept d where d.k in "
        "(select e.dept from emp e group by e.dept having count(*) = 0)"
    )
    for strategy in STRATEGIES:
        assert repro.connect(db).execute(sql, strategy=strategy).rows == [], strategy
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, report.describe()


def test_uncorrelated_count_over_empty_table():
    """``(SELECT count(*) FROM empty)`` is 0, not NULL — the scalar
    subquery must not collapse to the empty-set NULL convention."""
    db = build_db(EMP_SHAPES["all-empty"])
    sql = "select d.k from dept d where (select count(*) from emp e) = 0"
    for strategy in STRATEGIES:
        result = repro.connect(db).execute(sql, strategy=strategy)
        assert len(result) == 4, strategy
    reports = cross_check(db, sql, engine="sqlite", strategies=STRATEGIES)
    for report in reports:
        assert report.ok, report.describe()
