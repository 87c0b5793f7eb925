"""Algorithm 1 plans once per strategy decision.

A warm execution of a prepared query finds its reduce steps and its
annotated tree in the decision's :class:`~repro.core.plancache.PlanMemo`
and only reduces (from the reduce memo) and computes.  This pins:

* the memo's keys and staleness: a ``mutate_table`` or a CREATE TABLE
  re-plans, presets and backends get distinct trees, a per-execution
  logic override shares the session's tree, ``plan_cache=False`` plans
  on every call — and every one of them answers what a fresh session
  answers;
* a memoized tree's leaves are the names of the blocks as freshly
  reduced;
* shared trees and ready images are read-only: repeated, re-prepared and
  concurrent executions match a fresh session's rows, span trees and
  Metrics;
* a traced execution's engine steps run inside its root span.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro import session as session_module
from repro import strategies
from repro.core import planner
from repro.core.compute import NestedRelationalStrategy
from repro.core.reduce import reduce_step
from repro.engine import NULL, Column, Database
from repro.engine.context import current
from repro.engine.metrics import collect
from repro.engine.relation import BuildKeepingRelation
from repro.engine.trace import tracing
from repro.engine.vector.batch import Batch
from repro.options import ExecutionOptions
from repro.session import PreparedQuery, Session

from ..conftest import make_paper_db
from ..engine.test_vector import LINKING_MATRIX
from .test_explain import QUERY_Q
from .test_explain_golden import PAPER_QUERIES
from .test_explain_presets_golden import SHAPES

FIGURE_SQL = {p.values[0]: p.values[1] for p in PAPER_QUERIES}
NESTED_PRESETS = [
    name for name in strategies.names() if name.startswith("nested-relational")
]
BACKENDS = ("row", "vector")
TWO_VALUED = ExecutionOptions(logic="2vl")


@pytest.fixture(scope="module")
def tpch():
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
    )


def nullable_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [Column("a", not_null=True), Column("b")],
        [(1, 1), (2, NULL), (3, 2), (4, NULL)],
    )
    db.create_table("u", [Column("x")], [(1,), (2,), (9,)])
    return db


#: NOT (b = 1) keeps a NULL b only under 2VL
NULLABLE_SQL = (
    "select a from t where not (b = 1) and a in (select x from u where x < 5)"
)


def planned(prepared: PreparedQuery, **kwargs):
    """What the decision *kwargs* resolve to has memoized, or None."""
    decision = prepared._resolve(prepared._options(**kwargs))
    return decision.plan_memo.get(decision.impl, prepared.query)


@pytest.fixture
def plans(monkeypatch):
    """Counts the trees Algorithm 1 plans over reduced relations."""
    calls = []
    inner = NestedRelationalStrategy._plan_reduced

    def counting(self, *args):
        calls.append(self.name)
        return inner(self, *args)

    monkeypatch.setattr(NestedRelationalStrategy, "_plan_reduced", counting)
    return calls


def rows_of_fresh(db, sql, logic=None, **kwargs):
    return repro.connect(db, logic=logic).execute(sql, **kwargs).rows


# --------------------------------------------------------------------- #
# keys and staleness
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_mutate_table_re_plans(backend, plans):
    db = make_paper_db()
    prepared = repro.connect(db).prepare(QUERY_Q)
    run = {"strategy": "nested-relational", "backend": backend}
    first = prepared.execute(**run)
    tree = planned(prepared, **run).tree
    assert prepared.execute(**run).rows == first.rows
    assert len(plans) == 1

    db.mutate_table("S", rows=[])
    after = prepared.execute(**run)
    assert len(plans) == 2
    assert planned(prepared, **run).tree is not tree
    assert after.rows == rows_of_fresh(db, QUERY_Q, **run)
    assert sorted(after.rows) != sorted(first.rows)


def test_a_create_table_re_plans(plans):
    db = make_paper_db()
    prepared = repro.connect(db).prepare(QUERY_Q)
    run = {"strategy": "nested-relational", "backend": "vector"}
    before = prepared.execute(**run)
    db.create_table("V", [Column("y")], [(1,)])
    assert prepared.execute(**run).rows == before.rows
    assert len(plans) == 2
    assert before.rows == rows_of_fresh(db, QUERY_Q, **run)


def test_a_query_compiled_before_a_create_table_plans_its_own_tree(plans):
    """Two compilations of one text share a decision key; each executes
    a tree planned for its own analyzed query."""
    db = make_paper_db()
    session = repro.connect(db)
    run = {"strategy": "nested-relational", "backend": "vector"}
    old = session.prepare(QUERY_Q)
    db.create_table("V", [Column("y")], [(1,)])
    new = session.prepare(QUERY_Q)
    assert new.query is not old.query
    expected = new.execute(**run).rows
    assert old.execute(**run).rows == expected
    assert len(plans) == 2
    assert planned(old, **run).tree.query is old.query


def test_presets_and_backends_get_distinct_trees(plans):
    db = make_paper_db()
    prepared = repro.connect(db).prepare(QUERY_Q)
    requests = [
        {"strategy": "nested-relational", "backend": "row"},
        {"strategy": "nested-relational-sorted", "backend": "row"},
        {"strategy": "nested-relational", "backend": "vector"},
    ]
    expected = [rows_of_fresh(db, QUERY_Q, **run) for run in requests]
    plans.clear()
    for _round in range(2):
        for run, rows in zip(requests, expected):
            assert prepared.execute(**run).rows == rows
    assert len(plans) == len(requests)
    trees = [planned(prepared, **run).tree for run in requests]
    assert len({id(tree) for tree in trees}) == len(requests)
    nest_impls = [
        {e.up.nest_impl for node in tree.root.walk() for e in node.children}
        for tree in trees[:2]
    ]
    assert nest_impls == [{"hash"}, {"sorted"}]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_logic_override_shares_the_sessions_tree(backend, plans):
    db = nullable_db()
    prepared = repro.connect(db).prepare(NULLABLE_SQL)
    run = {"strategy": "nested-relational", "backend": backend}
    expected = {
        logic: rows_of_fresh(db, NULLABLE_SQL, logic, **run)
        for logic in ("3vl", "2vl")
    }
    assert expected["3vl"] != expected["2vl"]
    plans.clear()
    for _round in range(2):
        assert prepared.execute(**run).rows == expected["3vl"]
        two_valued = prepared.execute(**run, options=TWO_VALUED)
        assert two_valued.rows == expected["2vl"]
    # _resolve keys on the session's logic: one decision, one tree
    assert len(plans) == 1


def test_without_a_plan_cache_every_call_plans(plans):
    db = make_paper_db()
    prepared = repro.connect(db, plan_cache=False).prepare(QUERY_Q)
    for backend in BACKENDS:
        run = {"strategy": "nested-relational", "backend": backend}
        expected = rows_of_fresh(db, QUERY_Q, **run)
        plans.clear()
        for _round in range(3):
            assert prepared.execute(**run).rows == expected
        assert len(plans) == 3


def test_memoized_leaves_are_the_freshly_reduced_names(tpch, paper_db):
    cases = [(sql, tpch) for sql in FIGURE_SQL.values()]
    cases.append((QUERY_Q, paper_db))
    checked = 0
    for sql, db in cases:
        prepared = repro.connect(db).prepare(sql)
        for preset in NESTED_PRESETS:
            try:
                for _round in range(2):
                    prepared.execute(strategy=preset)
            except repro.errors.PlanError:
                continue  # the preset's guard refuses this query
            memo = planned(prepared, strategy=preset)
            impl = prepared._resolve(prepared._options(strategy=preset)).impl
            fresh = impl.backend.reduce_all(
                [reduce_step(b) for b in prepared.query.root.walk()], db
            )
            for node in memo.tree.root.walk():
                assert node.reduce.names == fresh[node.index].schema.names
                assert node.reduce.rid_ref == reduce_step(node.block).rid
            checked += 1
    assert checked >= len(cases) * 3


def test_blocks_over_one_join_plan_get_their_own_ready_images(paper_db):
    """σ_{S.F > 0}(S) is block 2 of one query and block 3 of the other:
    one join plan, two rids, so two vector images in one cache."""
    subquery = "R.A in (select S.E from S where S.F > 0)"
    texts = [
        f"select R.B, R.D from R where {subquery}",
        "select R.B, R.D from R"
        f" where exists (select T.L from T where T.K = R.C) and {subquery}",
    ]
    run = {"strategy": "nested-relational", "backend": "vector"}
    session = repro.connect(paper_db)
    steps = []
    for sql in texts:
        expected = repro.connect(paper_db, plan_cache=False).execute(
            sql, **run
        )
        prepared = session.prepare(sql)
        for _round in range(2):
            assert prepared.execute(**run).rows == expected.rows
        steps.append(reduce_step(list(prepared.query.root.walk())[-1]))
    assert steps[0].join == steps[1].join
    assert [step.rid for step in steps] == ["_rid2", "_rid3"]
    rids = [
        key[3] for key in session._cache._reduced
        if key[0] == steps[0].join.key
    ]
    assert sorted(rids) == ["_rid2", "_rid3"]


# --------------------------------------------------------------------- #
# shared trees and ready images are read-only
# --------------------------------------------------------------------- #


def _span_shape(span):
    return (
        span.name,
        span.kind,
        tuple(sorted((k, str(v)) for k, v in span.attrs.items())),
        tuple(sorted(span.counters.items())),
        tuple(_span_shape(child) for child in span.children),
    )


def _traced(prepared, run):
    with collect() as metrics:
        result, trace = prepared.trace(**run)
    shapes = [_span_shape(root) for root in trace.roots]
    return result.rows, shapes, metrics.snapshot()


@pytest.fixture(scope="module")
def read_only_cases(tpch, paper_db):
    out = {stem: (sql, tpch) for stem, sql in FIGURE_SQL.items()}
    out["query_q"] = (QUERY_Q, paper_db)
    out.update(
        {f"shape/{stem}": (sql, paper_db) for stem, sql in SHAPES.items()}
    )
    out.update(
        {f"matrix/{p.id}": (p.values[0], paper_db) for p in LINKING_MATRIX}
    )
    return out


@pytest.mark.parametrize("logic", ["3vl", "2vl"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_plans_and_images_behave_as_a_fresh_session(
    read_only_cases, backend, logic
):
    run = {"strategy": "nested-relational", "backend": backend}
    for stem, (sql, db) in read_only_cases.items():
        fresh = repro.connect(db, logic=logic).prepare(sql)
        cold, warm = _traced(fresh, run), _traced(fresh, run)
        session = repro.connect(db, logic=logic)
        prepared = session.prepare(sql)
        assert _traced(prepared, run) == cold, stem
        assert _traced(prepared, run) == warm, stem
        assert _traced(prepared, run) == warm, stem
        assert _traced(session.prepare(sql), run) == warm, stem
        # a served request: a fresh session over the shared cache
        served = Session(db, cache=session._cache, logic=logic).prepare(sql)
        assert _traced(served, run) == warm, stem


def _race(prepared, run):
    """24 executions of *prepared* on 8 threads, the first 8 released
    together, so they race on whatever the memo does not hold yet."""
    start = threading.Barrier(8)

    def execute(i):
        if i < 8:
            start.wait(timeout=60)
        return prepared.execute(**run).rows

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            return list(pool.map(execute, range(24)))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_executions_of_one_prepared_query(tpch, backend):
    """Eight threads start together on a cold reduce memo and race on
    its first builds; eight more then race on the first join builds of
    images the memo already holds (a vector image's build indexes, a
    row image's hash tables)."""
    run = {"strategy": "nested-relational", "backend": backend}
    forget, kept = {
        "row": ("_builds", BuildKeepingRelation.kept_builds),
        "vector": ("_indexes", Batch.kept_indexes),
    }[backend]
    for sql in FIGURE_SQL.values():
        expected = repro.connect(tpch).execute(sql, **run).rows
        prepared = repro.connect(tpch).prepare(sql)
        cache = prepared._session._cache
        assert not cache._reduced
        assert all(rows == expected for rows in _race(prepared, run))
        images = [image for image, _cells in cache._reduced.values()]
        assert images
        for image in images:
            setattr(image, forget, None)  # kept builds forgotten, images kept
        assert all(rows == expected for rows in _race(prepared, run))
        assert any(kept(image) for image in images)


# --------------------------------------------------------------------- #
# a traced execution's engine work is inside its root span
# --------------------------------------------------------------------- #


def test_every_step_of_a_traced_execution_runs_inside_the_root(
    monkeypatch, paper_db
):
    """Option layering, resolution, the governor's construction, the
    execution scope and ``planner.run`` all run while the root
    ``execute`` span is open; the tree keeps its shape."""
    seen = {}

    def root_open():
        tracer = current().tracer
        if tracer is None or not tracer.roots:
            return False
        root = tracer.roots[-1]
        return root.kind == "root" and not root.closed

    def spy(owner, name):
        inner = getattr(owner, name)

        def wrapped(*args, **kwargs):
            seen.setdefault(name, []).append(root_open())
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    spy(PreparedQuery, "_options")
    spy(PreparedQuery, "_resolve")
    spy(Session, "governor")
    spy(planner, "run")
    spy(session_module, "scope")

    prepared = repro.connect(paper_db).prepare(QUERY_Q)
    for run in (
        {},
        {"strategy": "nested-relational", "backend": "vector"},
        {"strategy": "nested-relational", "timeout_ms": 60_000},
    ):
        seen.clear()
        result, trace = prepared.trace(**run)
        assert set(seen) == {
            "_options", "_resolve", "governor", "run", "scope",
        }, run
        assert all(all(flags) for flags in seen.values()), (run, seen)
        # the shape planner.run gives a trace of its own: one root,
        # the same children
        decision = prepared._resolve(prepared._options(**run))
        with tracing() as reference:
            with session_module.scope(
                governor=prepared.session.governor(prepared._options(**run))
            ):
                planner.run(prepared.query, paper_db, decision)
        assert len(trace.roots) == len(reference.roots) == 1
        root, expected = trace.root, reference.root
        assert (root.name, root.kind, root.attrs) == (
            expected.name, expected.kind, expected.attrs,
        )
        assert [(c.name, c.kind) for c in root.children] == [
            (c.name, c.kind) for c in expected.children
        ]
        assert root.counters["rows_out"] == len(result)
