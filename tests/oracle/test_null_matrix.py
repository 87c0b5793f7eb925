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

from collections import Counter
from unittest import mock

import pytest

import repro
from repro.engine import Column, Database, NULL
from repro.engine.vector import nestlink
from repro.oracle import cross_check
from repro.tpch import TpchConfig, generate, query3

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


# --------------------------------------------------------------------- #
# Correlated EXISTS / NOT EXISTS at a leaf edge
# --------------------------------------------------------------------- #
#
# The vector engine decides these edges by counting each outer row's
# members instead of pairing it with them (``nestlink.join_nest``).  The
# count of ``o <> i`` members is "members with a non-NULL i, less those
# equal to o" where o is non-NULL — so the cells put NULLs on every
# operand, the join key included, over int and string columns.


#: the two outer blocks' rows of ``(k, g, a, s)``
OUTER_ROWS = {
    "top_t": [
        (1, 1, 1, "x"), (2, 1, 2, "y"), (3, 2, NULL, "x"), (4, 2, 3, NULL),
        (5, NULL, 1, "y"), (6, 3, 2, "z"), (7, 4, NULL, NULL),
    ],
    "mid_t": [
        (1, 1, 1, "x"), (2, 1, NULL, "y"), (3, 2, 2, NULL), (4, 3, 3, "z"),
        (5, NULL, 2, "x"), (6, 4, 1, "y"), (7, 2, 3, "x"),
    ],
}


def leaf_edge_db() -> Database:
    """``top_t`` -> ``mid_t`` -> ``inner_t``, NULL-heavy ``g`` (the equi
    key), ``a`` / ``b`` (int) and ``s`` / ``t`` (str)."""
    db = Database()
    for name, rows in OUTER_ROWS.items():
        db.create_table(
            name,
            [Column("k", not_null=True), Column("g"), Column("a"),
             Column("s")],
            rows,
            primary_key="k",
        )
    db.create_table(
        "inner_t",
        [Column("k", not_null=True), Column("g"), Column("b"), Column("t")],
        [
            (1, 1, 1, "x"), (2, 1, 1, "x"), (3, 1, NULL, "y"),
            (4, 2, 2, NULL), (5, 2, NULL, NULL), (6, NULL, 1, "x"),
            (7, 3, 2, "z"), (8, 3, 3, "y"), (9, 2, 3, "x"),
        ],
        primary_key="k",
    )
    return db


#: the operand pairs a ``<>`` correlation compares
OPERANDS = {"int": ("a", "b"), "str": ("s", "t")}


def correlation(shape: str, parent: str, kind: str) -> str:
    """The subquery's WHERE: equi to *parent* and, but for ``equi``, a
    ``<>`` to *parent* (or to ``top_t``, for ``grandparent``)."""
    outer, inner = OPERANDS[kind]
    equi = f"inner_t.g = {parent}.g"
    other = "top_t" if shape == "grandparent" else parent
    if shape == "equi":
        return equi
    if shape == "outer-first":
        return f"{equi} and {other}.{outer} <> inner_t.{inner}"
    return f"{equi} and inner_t.{inner} <> {other}.{outer}"


def leaf_edge_sql(shape: str, link: str, selection: str, kind: str) -> str:
    """One cell: the leaf edge judged as a strict σ, as the σ* of a
    block under ALL, or as a mark under OR."""

    def sub(parent):
        return (
            f"{link} (select * from inner_t "
            f"where {correlation(shape, parent, kind)})"
        )

    nested = shape == "grandparent"
    if selection == "strict":
        if nested:
            return (
                "select k from top_t where exists (select * from mid_t "
                f"where mid_t.g = top_t.g and {sub('mid_t')})"
            )
        return f"select k from top_t where {sub('top_t')}"
    if selection == "pseudo":
        return (
            "select k from top_t where top_t.a <> all (select mid_t.a "
            f"from mid_t where mid_t.g = top_t.g and {sub('mid_t')})"
        )
    if nested:
        return (
            "select k from top_t where exists (select * from mid_t "
            f"where mid_t.g = top_t.g and (mid_t.a = 1 or {sub('mid_t')}))"
        )
    return f"select k from top_t where top_t.a = 1 or {sub('top_t')}"


@pytest.mark.parametrize("kind", sorted(OPERANDS))
@pytest.mark.parametrize("selection", ["strict", "pseudo", "mark"])
@pytest.mark.parametrize("link", ["exists", "not exists"])
@pytest.mark.parametrize(
    "shape", ["equi", "outer-first", "inner-first", "grandparent"]
)
def test_existential_leaf_edge_matches_sqlite(shape, link, selection, kind):
    db = leaf_edge_db()
    sql = leaf_edge_sql(shape, link, selection, kind)
    with mock.patch.object(
        nestlink, "_counted_nest", wraps=nestlink._counted_nest
    ) as counted:
        reports = cross_check(
            db, sql, engine="sqlite", strategies=STRATEGIES
        )
    assert counted.called, "the cell never reached a counted leaf edge"
    for report in reports:
        assert report.ok, f"{sql}\n{report.describe()}"
    # two-valued logic has no external oracle: the row engine is it
    session = repro.connect(db, logic="2vl")
    bags = [
        Counter(session.execute(sql, strategy=s).rows) for s in STRATEGIES
    ]
    assert bags[0] == bags[1], sql


@pytest.fixture(scope="module")
def tpch_db() -> Database:
    return generate(TpchConfig(scale_factor=0.001, seed=2005))


@pytest.mark.parametrize("logic", ["3vl", "2vl"])
def test_query3_texts_agree_across_backends(tpch_db, logic):
    """Every Query 3 variant × quantifier × existential text at SF 0.001
    (Figures 7-9 are three of the twelve) returns the same bag on the
    vector engine as on the row engine."""
    session = repro.connect(tpch_db, logic=logic)
    for variant in ("a", "b", "c"):
        for quantifier in ("any", "all"):
            for existential in ("exists", "not exists"):
                sql = query3(quantifier, existential, variant, 1, 30, 6000, 25)
                row, vector = (
                    Counter(session.execute(sql, strategy=s).rows)
                    for s in STRATEGIES
                )
                assert vector == row, (variant, quantifier, existential)
