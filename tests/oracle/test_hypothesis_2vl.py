"""Property: on NULL-free data, 2VL == 3VL == SQLite for every
registered strategy; with NULLs the two logics diverge only in the
catalogued ways.

Libkin's central claim ("Handling SQL Nulls with Two-Valued Logic") is
that two-valued evaluation — every comparison with NULL is plain FALSE
— computes *exactly* the same answers as Kleene 3VL whenever the data
is NULL-free.  Hypothesis drives the fuzzer's seeded generator (now
covering aggregate links, GROUP BY/HAVING blocks and disjunctive
linking predicates), runs every applicable strategy under both logic
modes, and requires byte-equal results plus SQLite agreement.

On NULL-*bearing* data the modes genuinely differ (``NOT (x = y)``
with NULL x is TRUE under 2VL, ...); such divergences are expected and
documented in the known-divergence registry rather than asserted away.

One subtlety: a NULL-free *database* does not guarantee a NULL-free
*evaluation*.  ``sum``/``avg``/``min``/``max`` over an empty group
evaluate to NULL (``count`` yields 0), so a scalar-aggregate link
whose correlated subquery matches nothing manufactures a NULL out of
thin air — and ``NOT (NULL >= x)`` then legitimately diverges (3VL
drops the row, 2VL keeps it).  Libkin's equivalence is about NULL-free
evaluations, so the property below skips those shapes; the divergence
itself is demonstrated deterministically further down.
"""

from __future__ import annotations

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import repro  # noqa: E402
from repro.engine import NULL, Column, Database  # noqa: E402
from repro.engine.types import is_null  # noqa: E402
from repro.fuzz import FuzzConfig, generate_case  # noqa: E402
from repro.fuzz.corpus import applicable_strategies  # noqa: E402
from repro.fuzz.datagen import DatabaseSpec  # noqa: E402
from repro.oracle import cross_check  # noqa: E402
from repro.sql import ast as A  # noqa: E402
from repro.oracle.known import (  # noqa: E402
    KnownDivergence,
    clear_registered,
    find_known,
    register_known_divergence,
)


def _null_free(spec: DatabaseSpec) -> DatabaseSpec:
    """Replace residual NULLs with 0 (the generator's NULL-only-table
    bias fires even at null_rate=0)."""
    out = spec
    for table in spec.tables:
        if any(is_null(v) for row in table.rows for v in row):
            rows = [
                tuple(0 if is_null(v) else v for v in row)
                for row in table.rows
            ]
            out = out.with_rows(table.name, rows)
    return out


def _has_null_making_aggregate(node) -> bool:
    """True if the statement contains ``sum``/``avg``/``min``/``max`` —
    the aggregates that evaluate to NULL over an empty group, breaking
    the NULL-free-evaluation premise (``count`` safely yields 0)."""
    if isinstance(node, A.AggregateCall):
        return node.func != "count"
    if dataclasses.is_dataclass(node):
        return any(
            _has_null_making_aggregate(getattr(node, field.name))
            for field in dataclasses.fields(node)
        )
    if isinstance(node, (tuple, list)):
        return any(_has_null_making_aggregate(item) for item in node)
    return False


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_null_free_2vl_equals_3vl_equals_sqlite(seed):
    config = FuzzConfig(iterations=1, seed=seed, null_rate=0.0, logic="2vl")
    case = generate_case(config, 0)
    # an empty-group sum/avg/min/max manufactures a NULL even on
    # NULL-free data (seed=121 found one), and the logics then diverge
    # by design — see test_empty_group_aggregate_null_diverges below
    assume(not _has_null_making_aggregate(case.stmt))
    case = type(case)(
        stmt=case.stmt,
        db_spec=_null_free(case.db_spec),
        seed=case.seed,
        iteration=case.iteration,
    )
    db = case.db_spec.build()
    strategies = ["nested-iteration"] + applicable_strategies(case)
    three_valued = repro.connect(db, logic="3vl").prepare(case.sql)
    two_valued = repro.connect(db, logic="2vl").prepare(case.sql)
    for strategy in strategies:
        three = three_valued.execute(strategy=strategy).sorted()
        two = two_valued.execute(strategy=strategy).sorted()
        assert two == three, (
            f"seed={seed} strategy={strategy}: 2VL and 3VL disagree on "
            f"NULL-free data\n  {case.sql}"
        )
    # ... and both equal SQLite's 3VL answer
    reports = cross_check(db, case.sql, engine="sqlite", strategies=strategies)
    for report in reports:
        assert report.ok, f"seed={seed}\n{report.describe()}"


def test_empty_group_aggregate_null_diverges():
    """The shape the property above must exclude, pinned concretely
    (distilled from fuzz seed=121): on a NULL-free database, a
    correlated ``avg`` whose group is empty evaluates to NULL, and
    ``NOT (NULL >= x)`` keeps the row under 2VL while 3VL drops it."""
    db = Database()
    db.create_table(
        "t",
        [Column("k", not_null=True), Column("a")],
        [(1, 1), (2, 2), (3, 99)],
        primary_key="k",
    )
    db.create_table(
        "s",
        [Column("k", not_null=True), Column("a")],
        [(1, 5)],
        primary_key="k",
    )
    sql = (
        "select k from t "
        "where not (select avg(s.a) from s where s.a > t.a) >= t.a"
    )
    three = repro.connect(db, logic="3vl").execute(
        sql, strategy="nested-relational"
    )
    two = repro.connect(db, logic="2vl").execute(
        sql, strategy="nested-relational"
    )
    # rows k=1,2: avg({5}) = 5 >= a is TRUE, NOT drops them either way.
    # row k=3: the group {s.a > 99} is empty -> avg is NULL despite the
    # NULL-free data; 3VL's NOT(UNKNOWN) drops it, 2VL's NOT(FALSE)
    # keeps it.
    assert sorted(three.rows) == []
    assert sorted(two.rows) == [(3,)]
    # and the property's guard recognizes the original fuzz shape
    config = FuzzConfig(iterations=1, seed=121, null_rate=0.0, logic="2vl")
    case = generate_case(config, 0)
    assert _has_null_making_aggregate(case.stmt)


def _build_null_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [Column("k", not_null=True), Column("a")],
        [(1, 1), (2, NULL), (3, 3)],
        primary_key="k",
    )
    db.create_table(
        "s",
        [Column("k", not_null=True), Column("a")],
        [(1, 1), (2, NULL)],
        primary_key="k",
    )
    return db


def test_null_bearing_divergence_is_catalogued():
    """A concrete NULL-bearing 2VL/3VL divergence, demonstrated and then
    registered as a known divergence so external-oracle comparisons of
    2VL results never flake over it.

    ``NOT (NULL IN {1})``: 3VL calls the membership UNKNOWN, negation
    preserves UNKNOWN, and the row drops; 2VL calls ``NULL = 1`` plain
    FALSE, classical negation makes it TRUE, and the row survives.
    (Atomic ``NOT IN`` does *not* diverge — the NULL operand fails its
    ``<>`` comparison in both logics and FALSE and UNKNOWN drop alike.)
    """
    db = _build_null_db()
    sql = (
        "select k from t "
        "where not (t.a in (select a from s where a is not null))"
    )
    three = repro.connect(db, logic="3vl").execute(
        sql, strategy="nested-relational"
    )
    two = repro.connect(db, logic="2vl").execute(
        sql, strategy="nested-relational"
    )
    # 3VL: row k=2 has NULL a -> NOT UNKNOWN is UNKNOWN -> dropped.
    # 2VL: NULL = 1 is FALSE -> NOT FALSE is TRUE -> kept.
    assert sorted(three.rows) == [(3,)]
    assert sorted(two.rows) == [(2,), (3,)]

    entry = register_known_divergence(
        KnownDivergence(
            key="2vl-negated-null-membership",
            engines=("*",),
            reason=(
                "under two-valued logic a NULL operand makes the "
                "membership atom FALSE, so an explicit NOT over it "
                "becomes TRUE where 3VL engines report UNKNOWN"
            ),
            matches=lambda stmt, engine: True,
        )
    )
    try:
        assert find_known(sql, "sqlite") is entry
    finally:
        clear_registered()


def test_2vl_session_flag_round_trip():
    """The same divergence through the public Session API: connect's
    ``logic=`` flag governs every execution in the session (and
    overrides any ambient :func:`logic_mode`)."""
    db = _build_null_db()
    sql = (
        "select k from t "
        "where not (t.a in (select a from s where a is not null))"
    )
    three = repro.connect(db).execute(sql)
    two = repro.connect(db, logic="2vl").execute(sql)
    assert sorted(three.rows) == [(3,)]
    assert sorted(two.rows) == [(2,), (3,)]


# --------------------------------------------------------------------- #
# Frozen NOT-over-NULL corpus: row == vectorized under both logics
# --------------------------------------------------------------------- #

#: queries over NULLable columns where Kleene 3VL and Libkin 2VL
#: genuinely disagree.  The divergence needs an explicit NOT over a
#: NULL-involving predicate: at the top of WHERE, UNKNOWN (3VL) and
#: FALSE (2VL) filter identically, but NOT(UNKNOWN)=UNKNOWN excludes a
#: row while NOT(FALSE)=TRUE keeps it.
NOT_OVER_NULL_CORPUS = [
    "select id from emp where not (dept = some (select ref from probe))",
    "select id from emp where not (dept in (select ref from probe))",
    "select id from emp where not (dept <> all (select ref from probe))",
    "select id from emp where not (dept > some (select ref from probe))",
    "select id from emp where dept not in (select ref from probe)",
    "select id from emp where not exists "
    "(select * from probe where probe.ref = emp.dept)",
]


@pytest.fixture(scope="module")
def emp_probe_db():
    db = Database()
    db.create_table(
        "emp",
        [Column("id"), Column("dept"), Column("name")],
        [(i, NULL if i % 5 == 0 else i % 7, f"name{i}") for i in range(64)],
        primary_key="id",
    )
    db.create_table(
        "probe",
        [Column("pid"), Column("ref")],
        [(i, NULL if i % 3 == 0 else i % 6) for i in range(48)],
        primary_key="pid",
    )
    return db


def _bag(relation):
    return sorted(relation.rows, key=repr)


@pytest.mark.parametrize("logic", ["3vl", "2vl"])
def test_not_over_null_corpus_row_equals_vectorized(emp_probe_db, logic):
    session = repro.connect(emp_probe_db, logic=logic)
    for sql in NOT_OVER_NULL_CORPUS:
        prepared = session.prepare(sql)
        row = _bag(prepared.execute(strategy="nested-relational"))
        vector = _bag(
            prepared.execute(strategy="nested-relational-vectorized")
        )
        assert vector == row, (sql, logic)


def test_not_over_null_corpus_has_teeth(emp_probe_db):
    """At least one corpus query answers differently under 2VL, so the
    parity test above would catch an engine stuck on one logic."""
    s3 = repro.connect(emp_probe_db, logic="3vl")
    s2 = repro.connect(emp_probe_db, logic="2vl")
    assert [
        sql
        for sql in NOT_OVER_NULL_CORPUS
        if _bag(s3.execute(sql)) != _bag(s2.execute(sql))
    ], "corpus no longer distinguishes the logic modes"
