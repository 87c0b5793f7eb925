"""The witness join: a fused run's deepest EXISTS / NOT EXISTS edge.

Under ``fuse-links`` the edge into a leaf block under an unmarked EXISTS
or NOT EXISTS is planned as a *witness* ⟕ (``OuterJoin.witness``): each
outer tuple keeps its first qualifying pair, or its padding, because the
single-pass scan reads only whether some member's rid is non-NULL there.
This pins

* where the planner sets the flag — exactly on such edges, over the
  paper's shapes, the six figure queries and the fuzzer's query space,
  for every preset;
* that the row engine's witness span emits one row per outer tuple;
* that the vector backend, which has no fused scan, refuses the node;
* on NULL-heavy, duplicate-keyed two- and three-level linear queries,
  with no residual, a ``<>`` residual, a θ-only correlation and a
  conjunction: ``nested-relational-optimized`` equals
  ``nested-relational`` on the row engine under 3VL, under 2VL and
  governed by a memory budget with a spill directory, and equals
  SQLite (3VL).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro import strategies
from repro.core.compute import (
    FUSE_LINKS,
    STRICT_WHEN_POSITIVE,
    NestedRelationalStrategy,
)
from repro.core.query_tree import NestLink, OuterJoin
from repro.engine import NULL, Column, Database
from repro.engine.trace import CONTRACT_PRESERVING, trace_invariant_violations
from repro.engine.vector.backend import VectorBackend
from repro.errors import PlanError
from repro.fuzz import FuzzConfig, generate_case
from repro.oracle import cross_check

from ..conftest import run_traced
from ..fuzz_corpus import test_fuzz_8ff4d1a331 as fuzz_8ff4d1a331
from .test_explain_golden import PAPER_QUERIES
from .test_explain_presets_golden import SHAPES

OPTIMIZED = "nested-relational-optimized"
PRESETS = [
    name for name in strategies.names() if name.startswith("nested-relational")
]
EXISTENTIAL = ("exists", "not_exists")


def _edges(node):
    for edge in node.children:
        yield edge
        yield from _edges(edge.child)


def _plan(preset, sql, db):
    query = repro.compile_sql(sql, db)
    impl = strategies.make(preset)
    try:
        return impl.plan(query)
    except PlanError:
        return None


def _queries(paper_db, tiny_tpch):
    yield from ((sql, paper_db) for sql in SHAPES.values())
    yield from ((p.values[1], tiny_tpch) for p in PAPER_QUERIES)
    config = FuzzConfig(seed=50, max_depth=3, disjunction_probability=0.0)
    for iteration in range(80):
        case = generate_case(config, iteration)
        yield case.sql, case.db_spec.build()


def test_witness_marks_exactly_the_deepest_existential_leaf_edge(
    paper_db, tiny_tpch
):
    seen = {"witness": 0, "quantified": 0, "aggregate": 0, "inner": 0}
    for sql, db in _queries(paper_db, tiny_tpch):
        for preset in PRESETS:
            tree = _plan(preset, sql, db)
            if tree is None:
                continue
            for edge in _edges(tree.root):
                witness = getattr(edge.connect, "witness", False)
                fused = isinstance(edge.connect, OuterJoin) and not isinstance(
                    edge.up, NestLink
                )
                link = edge.link
                expected = (
                    fused
                    and edge.child.is_leaf
                    and link.operator in EXISTENTIAL
                    and link.mark is None
                )
                assert witness == expected, (preset, sql, link.describe())
                if witness:
                    assert preset == OPTIMIZED
                    seen["witness"] += 1
                elif fused and not edge.child.is_leaf:
                    seen["inner"] += 1
                elif fused and link.operator == "agg":
                    seen["aggregate"] += 1
                elif fused:
                    seen["quantified"] += 1
    # every kind of edge the flag must stay off was planned
    assert all(count >= 3 for count in seen.values()), seen


def _disjunctive_queries(paper_db):
    yield from (
        (sql, paper_db) for stem, sql in SHAPES.items() if "disjunction" in stem
    )
    yield fuzz_8ff4d1a331.SQL, fuzz_8ff4d1a331.build_db()
    config = FuzzConfig(seed=51, max_depth=3, disjunction_probability=1.0)
    for iteration in range(200):
        case = generate_case(config, iteration)
        yield case.sql, case.db_spec.build()


def test_no_marked_link_reaches_a_fused_run(paper_db):
    """``_witnessed`` reads no mark: a marked link — only a disjunctive
    query has one — never sits on a fused run, because ``_rules_for``
    drops ``fuse-links`` for such a query (and planning asserts it)."""
    fusing = [
        preset for preset in PRESETS
        if FUSE_LINKS in strategies.make(preset).rules
    ]
    marked = 0
    for sql, db in _disjunctive_queries(paper_db):
        for preset in fusing:
            tree = _plan(preset, sql, db)
            if tree is None:
                continue
            for edge in _edges(tree.root):
                if edge.link.mark is None:
                    continue
                marked += 1
                fused = isinstance(edge.connect, OuterJoin) and not isinstance(
                    edge.up, NestLink
                )
                assert not fused, (preset, sql, edge.link.describe())
    assert fusing and marked >= 100, marked


def _fig8():
    return next(p.values[1] for p in PAPER_QUERIES if p.values[0] == "fig8_q3b")


def test_witness_span_emits_one_row_per_outer_tuple(tiny_tpch):
    query = repro.compile_sql(_fig8(), tiny_tpch)
    result, trace = run_traced(query, tiny_tpch, OPTIMIZED)
    joins = trace.find("LeftOuterHashJoin")
    (witness,) = [s for s in joins if s.attrs.get("join") == "witness"]
    assert witness.contract == CONTRACT_PRESERVING
    assert witness.counters["rows_out"] == witness.counters["rows_in"] > 0
    assert witness.attrs["on"] == "partsupp.ps_suppkey=lineitem.l_suppkey"
    (upper,) = [s for s in joins if "join" not in s.attrs]
    assert upper.contract == "expanding"
    assert trace_invariant_violations(trace, len(result)) == []
    # the edge has pairs to spare: plain Algorithm 1 joins them all
    _, plain = run_traced(query, tiny_tpch, "nested-relational")
    (deep,) = [
        s for s in plain.find("LeftOuterHashJoin")
        if s.attrs["on"] == witness.attrs["on"]
    ]
    assert deep.counters["rows_out"] > witness.counters["rows_out"]


def test_vector_backend_refuses_a_witness_join():
    node = OuterJoin(("a",), ("b",), None, ("a", "b"), witness=True)
    with pytest.raises(PlanError, match="witness"):
        VectorBackend().left_outer_join(None, None, node)


def test_an_uncorrelated_witness_crosses_with_one_child_row(paper_db):
    """Without ``virtual-cartesian`` an uncorrelated EXISTS child is
    joined by the outer ×; as a witness it keeps one child row."""
    sql = "select R.B from R where exists (select S.E from S where S.F = 5)"
    query = repro.compile_sql(sql, paper_db)
    impl = NestedRelationalStrategy({STRICT_WHEN_POSITIVE, FUSE_LINKS})
    (edge,) = impl.plan(query).root.children
    assert edge.connect.cross and edge.connect.witness
    result, trace = run_traced(query, paper_db, impl)
    (cross,) = trace.find("OuterCrossJoin")
    assert cross.counters["rows_out"] == cross.counters["rows_in"]
    plain = repro.connect(paper_db).execute(sql, strategy="nested-relational")
    assert result.sorted() == plain.sorted()


# --------------------------------------------------------------------- #
# property: optimized == plain == SQLite on NULL-heavy linear queries
# --------------------------------------------------------------------- #

values = st.sampled_from([NULL, NULL, 0, 1, 2])


def _table(n_cols):
    return st.lists(st.tuples(*[values] * n_cols), max_size=7)


#: the deepest edge's correlation: no residual, a ``<>`` residual,
#: θ-only, a conjunction — over the adjacent block and (three levels)
#: the root
TWO_LEVEL = [
    "s.d = r.a",
    "s.d = r.a and s.e <> r.b",
    "s.e <> r.b",
    "s.d = r.a and s.e > r.b and s.f <> r.c",
]
THREE_LEVEL = [
    "t.g = s.e",
    "t.g = s.e and t.h <> r.b",
    "t.h < s.f",
    "t.g = s.e and t.h = r.a and t.i <> s.f",
]
OUTER_LINKS = [
    "exists", "not exists", "r.b in", "r.b not in", "r.b > all", "r.b < some",
]


def _sql(depth, outer, exists, corr):
    exists = "exists" if exists else "not exists"
    if depth == 2:
        return (
            f"select r.a, r.b from r where {exists} "
            f"(select s.d from s where {corr})"
        )
    return (
        f"select r.a, r.b from r where {outer} "
        f"(select s.e from s where s.d = r.c and {exists} "
        f"(select t.g from t where {corr}))"
    )


queries = st.one_of(
    st.builds(
        _sql, st.just(2), st.just(None), st.booleans(),
        st.sampled_from(TWO_LEVEL),
    ),
    st.builds(
        _sql, st.just(3), st.sampled_from(OUTER_LINKS), st.booleans(),
        st.sampled_from(THREE_LEVEL),
    ),
)


def _db(r, s, t):
    db = Database()
    for name, cols, rows in (
        ("r", "abc", r), ("s", "def", s), ("t", "ghi", t),
    ):
        db.create_table(name, [Column(c) for c in cols], rows)
    return db


@given(
    sql=queries,
    r=_table(3), s=_table(3), t=_table(3),
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_optimized_equals_plain_and_sqlite(sql, r, s, t, tmp_path_factory):
    db = _db(r, s, t)
    tree = _plan(OPTIMIZED, sql, db)
    assert any(e.connect.witness for e in _edges(tree.root)), sql
    spill_dir = str(tmp_path_factory.mktemp("spill"))
    for session in (
        repro.connect(db),
        repro.connect(db, logic="2vl"),
        repro.connect(db, memory_limit_mb=1, spill_dir=spill_dir),
    ):
        prepared = session.prepare(sql)
        optimized = prepared.execute(strategy=OPTIMIZED, backend="row")
        plain = prepared.execute(strategy="nested-relational", backend="row")
        assert optimized.sorted() == plain.sorted(), sql
    for report in cross_check(
        db, sql, "sqlite", strategies=(OPTIMIZED, "nested-relational"),
        backend="row",
    ):
        assert report.ok, report.describe()
