"""The execution context crosses the morsel pool — 2VL included.

A ``ContextVar`` does NOT propagate into ``ThreadPoolExecutor`` workers
by itself: the morsel scheduler forks the dispatching thread's
:class:`~repro.engine.context.ExecutionContext` once per morsel and
installs the fork in the worker.  The seam test below pins that for
**every** field of the context (a field the fork forgets shows up as the
root default inside the pool); the parity corpus pins the consequence
that first exposed the seam — on a scheduler that loses the logic mode,
pool workers evaluate under default 3VL while the inline path runs 2VL,
and the corpus (which deliberately contains queries whose 2VL and 3VL
answers differ) diverges.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.plancache import SessionCache
from repro.engine import Column, Database, NULL
from repro.engine.context import ExecutionContext, current, scope
from repro.engine.governor import ResourceGovernor
from repro.engine.metrics import Metrics
from repro.engine.parallel import MorselScheduler
from repro.engine.trace import Tracer, op_span
from repro.session import Session

#: queries over NULLable columns where Kleene 3VL and Libkin 2VL
#: genuinely disagree.  The divergence needs an explicit NOT over a
#: NULL-involving predicate: at the top of WHERE, UNKNOWN (3VL) and
#: FALSE (2VL) filter identically, but NOT(UNKNOWN)=UNKNOWN excludes a
#: row while NOT(FALSE)=TRUE keeps it.
CORPUS = [
    "select id from emp where not (dept = some (select ref from probe))",
    "select id from emp where not (dept in (select ref from probe))",
    "select id from emp where not (dept <> all (select ref from probe))",
    "select id from emp where not (dept > some (select ref from probe))",
    "select id from emp where dept not in (select ref from probe)",
    "select id from emp where not exists "
    "(select * from probe where probe.ref = emp.dept)",
]

STRATEGIES = (
    ("nested-relational", None),
    ("nested-relational-vectorized", None),
    ("nested-relational-parallel", 4),
)


@pytest.fixture(scope="module")
def db():
    db = Database()
    rows = [
        (i, NULL if i % 5 == 0 else i % 7, f"name{i}") for i in range(64)
    ]
    db.create_table(
        "emp",
        [Column("id"), Column("dept"), Column("name")],
        rows,
        primary_key="id",
    )
    db.create_table(
        "probe",
        [Column("pid"), Column("ref")],
        [(i, NULL if i % 3 == 0 else i % 6) for i in range(48)],
        primary_key="pid",
    )
    return db


@pytest.fixture(autouse=True)
def tiny_morsels(monkeypatch):
    """Force real pool dispatch even on these small tables."""
    monkeypatch.setenv("REPRO_MIN_PARTITION_ROWS", "1")


def _bag(relation):
    return sorted(relation.rows, key=repr)


#: what ``fork()`` does with each field; a field missing here fails the
#: parametrization below, so adding one forces the decision
SHARED = ("governor", "logic", "reduce_cache", "spill_depth")
RENEWED = ("metrics", "tracer")


@pytest.mark.parametrize("field", ExecutionContext._fields)
def test_pooled_morsels_run_under_a_fork_of_the_parent_context(field):
    """Direct seam test, one case per context field: a pooled morsel
    sees the parent's shared fields by identity and its own recorders,
    and the join leaves the parent's context untouched with the morsels'
    metric deltas and span trees merged into it."""
    assert field in SHARED + RENEWED
    scheduler = MorselScheduler(threads=4, min_partition_rows=1)
    parent = ExecutionContext(
        metrics=Metrics(), tracer=Tracer(), governor=ResourceGovernor(),
        logic="2vl", reduce_cache=SessionCache(), spill_depth=3,
    )

    def morsel(span):
        context = current()
        context.metrics.add("probe")
        return threading.current_thread().name, context

    with scope(parent) as installed:
        with op_span("dispatch") as dispatch:
            seen = scheduler.run([morsel] * 8, dispatch)
        assert current() is installed
    assert all(name.startswith("repro-morsel") for name, _ in seen)
    values = [getattr(context, field) for _, context in seen]
    if field in SHARED:
        # pre-fork schedulers: whichever slot was not re-installed by
        # hand reads as the root default ("3vl" / None / 0) in the pool
        assert all(value is getattr(parent, field) for value in values)
    else:
        assert all(value is not None for value in values)
        assert len({id(value) for value in values}) == len(values)
        assert all(value is not getattr(parent, field) for value in values)
    assert getattr(installed, field) is getattr(parent, field)
    assert parent.metrics.get("probe") == 8
    assert [child.name for child in dispatch.children] == [
        f"morsel[{i}]" for i in range(8)
    ]
    # and the fork is per-run, not sticky: dispatched from the root
    # context, the same pool threads are back on the root's value
    if field in SHARED:
        after = scheduler.run(
            [lambda span: getattr(current(), field)] * 8, None
        )
        assert after == [getattr(ExecutionContext(), field)] * 8


@pytest.mark.parametrize("logic", ["3vl", "2vl"])
def test_corpus_parity_across_strategies(db, logic):
    """Frozen corpus: row == vectorized == parallel under BOTH logics."""
    session = Session(db, logic=logic)
    for sql in CORPUS:
        prepared = session.prepare(sql)
        results = {
            name: _bag(prepared.execute(strategy=name, threads=threads))
            for name, threads in STRATEGIES
        }
        baseline = results["nested-relational"]
        for name, got in results.items():
            assert got == baseline, (sql, logic, name)


def test_corpus_has_teeth_2vl_differs_from_3vl(db):
    """At least one corpus query answers differently under 2VL — so the
    parity test above would catch a parallel strategy stuck on 3VL."""
    s3 = Session(db, logic="3vl")
    s2 = Session(db, logic="2vl")
    differing = [
        sql
        for sql in CORPUS
        if _bag(s3.execute(sql)) != _bag(s2.execute(sql))
    ]
    assert differing, "corpus no longer distinguishes the logic modes"
    # the parallel strategy agrees with the row engine on those queries
    for sql in differing:
        got = s2.execute(
            sql, strategy="nested-relational-parallel", threads=4
        )
        assert _bag(got) == _bag(s2.execute(sql)), sql
