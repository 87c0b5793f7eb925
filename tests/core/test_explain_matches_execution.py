"""EXPLAIN names the execution it describes.

DuckDB's contract (SNIPPETS.md Snippet 3): ``EXPLAIN`` shows the plan
that *would* run and ``EXPLAIN ANALYZE`` runs *that* plan.  Every
request — ``auto``, a registry name on its own or its counterpart
backend, an alias, a row-only strategy, a strategy instance — must
either be refused by ``explain`` and ``trace`` alike (same error type,
same message) or name, in ``plan.chosen``, the strategy of the root
span that ``trace`` under the same options produces, with
``plan.operators`` that instance's own plan text.
"""

from __future__ import annotations

import pytest

import repro
from repro import strategies
from repro.errors import InvalidArgumentError, PlanError
from repro.options import ExecutionOptions
from repro.engine.colstore import load_stored_database
from repro.tpch import (
    TpchConfig,
    generate_stored,
    pick_date_window,
    query1,
    query3,
)

QUERIES = {
    "q1": query1("1993-01-01", "1994-01-01"),
    "q3": query3("all", "exists", "a", 1, 30, 6000, 25),
}

INSTANCE = "<instance>"
STRATEGIES = (
    "auto",
    "nested-relational",
    "nested-relational-vectorized",
    "nested-relational-parallel",
    "nested-relational-bottomup",
    "system-a-native",
    INSTANCE,
)
BACKENDS = (None, "row", "vector")
THREADS = (None, 2)

REFUSALS = (PlanError, InvalidArgumentError)


def options_for(strategy, backend, threads) -> ExecutionOptions:
    if strategy == INSTANCE:
        strategy = strategies.make("nested-relational-sorted")
    return ExecutionOptions(strategy=strategy, backend=backend, threads=threads)


def outcome(call):
    """``("ok", value)`` or ``("refused", type, message)``."""
    try:
        return ("ok", call())
    except REFUSALS as exc:
        return ("refused", type(exc), str(exc))


def own_plan_text(strategy_name: str, query, db) -> str:
    return strategies.make(strategy_name).explain(query, db)


@pytest.mark.parametrize("threads", THREADS, ids=lambda t: f"threads={t}")
@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: f"backend={b}")
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("qid", sorted(QUERIES))
def test_explain_names_what_trace_runs(micro_tpch, qid, strategy, backend, threads):
    prepared = repro.connect(micro_tpch).prepare(QUERIES[qid])
    options = options_for(strategy, backend, threads)

    explained = outcome(lambda: prepared.explain(options=options))
    traced = outcome(lambda: prepared.trace(options=options))
    if traced[0] == "refused" or explained[0] == "refused":
        assert explained == traced
        return

    plan = explained[1]
    _result, trace = traced[1]
    root = trace.roots[0]
    assert plan.chosen == root.attrs["strategy"]
    assert plan.operators == own_plan_text(
        plan.chosen, prepared.query, micro_tpch
    )

    analyzed = prepared.explain(analyze=True, timings=False, options=options)
    assert analyzed.chosen == plan.chosen
    assert analyzed.operators == plan.operators
    analyzed_root = analyzed.spans["spans"][0]
    assert analyzed_root["name"] == "execute"
    assert analyzed_root["attrs"]["strategy"] == plan.chosen
    assert f"execute(strategy={plan.chosen})" in analyzed.analysis


@pytest.fixture(scope="module")
def stored_db(tmp_path_factory):
    """In a column store only the operators are charged (an in-RAM
    database's table materialization is not spillable)."""
    path = str(tmp_path_factory.mktemp("explain-store") / "tpch")
    generate_stored(
        path, TpchConfig(scale_factor=0.002, seed=1234), chunk_rows=500
    )
    return load_stored_database(path)


def test_budgeted_choice_is_the_executed_one(stored_db, tmp_path):
    """A memory budget small enough that ``choose`` prices spill passes
    (``spill_dir`` set, so the run completes): ``chosen`` is still the
    root span's strategy, on EXPLAIN and EXPLAIN ANALYZE alike."""
    prepared = repro.connect(stored_db).prepare(
        query1(*pick_date_window(stored_db, 40))
    )
    options = ExecutionOptions(
        backend="vector", memory_limit_mb=0.05, spill_dir=str(tmp_path)
    )
    unbudgeted = prepared.explain(options=ExecutionOptions(backend="vector"))
    plan = prepared.explain(options=options)
    assert plan.est_cost > unbudgeted.est_cost  # spill passes were priced
    _result, trace = prepared.trace(options=options)
    assert plan.chosen == trace.roots[0].attrs["strategy"]
    assert any(span.kind == "spill" for span in trace.spans())
    analyzed = prepared.explain(analyze=True, options=options)
    assert analyzed.spans["spans"][0]["attrs"]["strategy"] == plan.chosen
