"""Trace-invariant suite: for every registered strategy, the span tree
produced by a traced execution must be internally consistent.

Checked per (strategy, query) pair, across the full linking-operator
matrix on the paper's R/S/T data (whose NULLs exercise the pk-NULL
empty-vs-{NULL} distinction) and on the paper's TPC-H queries:

* every span closed, counters non-negative;
* cardinality contracts (filtering / preserving / expanding) hold;
* the root span's ``rows_out`` equals the result cardinality;
* summed per-span metric deltas reconcile exactly with the ambient
  ``Metrics`` totals of the execution.
"""

from __future__ import annotations

import pytest

import repro
from repro.strategies import (
    ROW_BACKEND,
    available_strategies,
    entries,
    make as make_strategy,
)
from repro.engine.metrics import collect
from repro.engine.trace import (
    reconcile_with_metrics,
    trace_invariant_violations,
    tracing,
)
from repro.core.optimizer import strategy_applicable
from repro.tpch import query1, query2, query3

from .test_explain import QUERY_Q

#: every strategy the planner can run ("auto" resolves per query)
STRATEGIES = available_strategies()

#: one query per linking operator over the paper's R/S/T relations —
#: correlated subqueries against data with NULLs in both the linking
#: and the correlation columns (conftest ``paper_db``).
LINKING_MATRIX = [
    pytest.param(
        "select A, D from R where exists"
        " (select E from S where F = B)",
        id="EXISTS",
    ),
    pytest.param(
        "select A, D from R where not exists"
        " (select E from S where F = B)",
        id="NOT-EXISTS",
    ),
    pytest.param(
        "select A, D from R where A in"
        " (select E from S where F = B)",
        id="IN",
    ),
    pytest.param(
        "select A, D from R where A not in"
        " (select E from S where F = B)",
        id="NOT-IN",
    ),
    pytest.param(
        "select A, D from R where A < some"
        " (select E from S where F = B)",
        id="theta-SOME",
    ),
    pytest.param(
        "select A, D from R where A >= all"
        " (select E from S where F = B)",
        id="theta-ALL",
    ),
    pytest.param(
        "select A, D from R where A > all"
        " (select E from S where F = B and exists"
        "  (select J from T where K = G))",
        id="two-level-ALL-EXISTS",
    ),
    pytest.param(
        "select A from R where not exists"
        " (select E from S where F = B and H not in"
        "  (select J from T where K = G))",
        id="two-level-NOT-EXISTS-NOT-IN",
    ),
]


def assert_trace_invariants(prepared, strategy):
    with collect() as metrics:
        with tracing() as trace:
            result = prepared.execute(strategy=strategy)
    violations = trace_invariant_violations(
        trace, result_cardinality=len(result)
    )
    assert violations == [], f"{strategy}: {violations}"
    mismatches = reconcile_with_metrics(trace, metrics.snapshot())
    assert mismatches == [], f"{strategy}: {mismatches}"
    assert trace.root is not None, f"{strategy}: expected one root span"
    return trace


class TestLinkingMatrix:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("sql", LINKING_MATRIX)
    def test_invariants_hold(self, paper_db, sql, strategy):
        prepared = repro.connect(paper_db, plan_cache=False).prepare(sql)
        if strategy != "auto" and not strategy_applicable(
            make_strategy(strategy), prepared.query, paper_db
        ):
            pytest.skip(f"{strategy} does not accept this query")
        assert_trace_invariants(prepared, strategy)


#: the strategies that run on the row operators of ``engine.operators``
ROW_STRATEGIES = [e.name for e in entries() if e.backend == ROW_BACKEND]

#: the span names of the row operators
ROW_OPERATORS = {
    "Filter",
    "HashJoin",
    "LeftOuterHashJoin",
    "SemiJoin",
    "AntiJoin",
    "NestedLoopJoin",
    "OuterCrossJoin",
    "GroupAggregate",
}


class TestRowOperatorAttribution:
    """A row operator's span holds the work the operator did: it has no
    operator span below it for its input to take the counts, and a
    ``Filter``'s own ``predicate_evals`` are one per row it read."""

    @pytest.mark.parametrize("strategy", ROW_STRATEGIES)
    @pytest.mark.parametrize(
        "sql", LINKING_MATRIX + [pytest.param(QUERY_Q, id="query-q")]
    )
    def test_work_lands_on_the_operator_span(self, paper_db, sql, strategy):
        prepared = repro.connect(paper_db, plan_cache=False).prepare(sql)
        if not strategy_applicable(
            make_strategy(strategy), prepared.query, paper_db
        ):
            pytest.skip(f"{strategy} does not accept this query")
        trace = assert_trace_invariants(prepared, strategy)
        for span in trace.spans():
            if span.name not in ROW_OPERATORS:
                continue
            assert [c.name for c in span.children if c.kind == "operator"] == []
            if span.name == "Filter":
                assert span.self_metrics().get(
                    "predicate_evals", 0
                ) == span.counters.get("rows_in", 0), span

    def test_query_q_reduce_filters_carry_their_evaluations(self, paper_db):
        prepared = repro.connect(paper_db, plan_cache=False).prepare(QUERY_Q)
        trace = assert_trace_invariants(prepared, "nested-relational")
        filters = trace.find("Filter")
        assert filters
        for span in filters:
            assert span.self_metrics()["predicate_evals"] == span.counters["rows_in"]
            assert span.self_metrics()["rows_scanned"] == span.counters["rows_in"]


class TestPaperQueries:
    """The six figure queries (one strategy sweep per figure; the full
    strategy matrix runs on the small R/S/T data above).

    The sweeps are bound by the quadratic nested-iteration oracle, so
    tier-1 runs them on the 150-order / 20-part ``micro_tpch_nulls``
    instance; the ``tiny_tpch_nulls`` size is the ``full_scale`` variant
    below.  Every figure still has a non-empty answer there except
    fig9-q3c (no part among 20 is cheaper than ANY of its suppliers'
    costs), whose non-empty sweep is the full-scale one.
    """

    FIGURE_QUERIES = [
        pytest.param(query1("1992-01-01", "1994-06-01"), id="fig4-q1"),
        pytest.param(query2("any", 1, 30, 6000, 25), id="fig5-q2a"),
        pytest.param(query2("all", 1, 30, 6000, 25), id="fig6-q2b"),
        pytest.param(query3("all", "exists", "a", 1, 30, 6000, 25), id="fig7-q3a"),
        pytest.param(query3("all", "not exists", "b", 1, 30, 6000, 25), id="fig8-q3b"),
        pytest.param(query3("any", "exists", "c", 1, 30, 6000, 25), id="fig9-q3c"),
    ]

    SWEEP_STRATEGIES = [
        "nested-relational",
        "nested-relational-optimized",
        "nested-iteration",
        "system-a-native",
        "auto",
    ]

    def _sweep(self, db, sql, nonempty=True):
        prepared = repro.connect(db, plan_cache=False).prepare(sql)
        for strategy in self.SWEEP_STRATEGIES:
            trace = assert_trace_invariants(prepared, strategy)
            if nonempty:
                assert trace.root.counters["rows_out"] > 0, strategy

    @pytest.mark.parametrize("sql", FIGURE_QUERIES)
    def test_invariants_hold(self, request, micro_tpch_nulls, sql):
        self._sweep(
            micro_tpch_nulls, sql,
            nonempty=request.node.callspec.id != "fig9-q3c",
        )

    @pytest.mark.full_scale
    @pytest.mark.parametrize("sql", FIGURE_QUERIES)
    def test_invariants_hold_at_sf_0_002(self, tiny_tpch_nulls, sql):
        self._sweep(tiny_tpch_nulls, sql)


class TestTracingIsObservationOnly:
    """Result rows and Metrics counters must be bit-identical with
    tracing on and off (the near-zero-overhead-claim's correctness
    half; the Hypothesis suite covers random queries)."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_same_result_and_metrics(self, paper_db, strategy):
        sql = (
            "select A, D from R where not exists"
            " (select E from S where F = B)"
        )
        prepared = repro.connect(paper_db, plan_cache=False).prepare(sql)
        if strategy != "auto" and not strategy_applicable(
            make_strategy(strategy), prepared.query, paper_db
        ):
            pytest.skip(f"{strategy} does not accept this query")
        with collect() as plain_metrics:
            plain = prepared.execute(strategy=strategy)
        with collect() as traced_metrics:
            with tracing():
                traced = prepared.execute(strategy=strategy)
        assert traced.sorted() == plain.sorted()
        assert traced_metrics.snapshot() == plain_metrics.snapshot()
