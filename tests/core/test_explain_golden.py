"""Golden-file tests for EXPLAIN and EXPLAIN ANALYZE on the six paper
queries (Figures 4-9), rendered through the typed
:class:`~repro.core.plan.Plan` API.

The expected texts live under ``tests/golden/``; regenerate them after
an intentional plan- or trace-format change with::

    PYTHONPATH=src python -m pytest tests/core/test_explain_golden.py --update-golden

The ``explain_*.txt`` files carry the operator tree of what ``auto``
runs; ``explain_fig4_q1.json`` pins the machine-readable render.
EXPLAIN ANALYZE goldens are rendered with ``timings=False``, so the
files are fully deterministic: the tiny TPC-H instance is seeded, and
every counter in the trace is a function of the data alone.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.tpch import query1, query2, query3

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "golden")

#: the six figure queries, keyed by golden-file stem
PAPER_QUERIES = [
    pytest.param("fig4_q1", query1("1992-01-01", "1994-06-01"), id="fig4-q1"),
    pytest.param("fig5_q2a", query2("any", 1, 30, 6000, 25), id="fig5-q2a"),
    pytest.param("fig6_q2b", query2("all", 1, 30, 6000, 25), id="fig6-q2b"),
    pytest.param(
        "fig7_q3a", query3("all", "exists", "a", 1, 30, 6000, 25), id="fig7-q3a"
    ),
    pytest.param(
        "fig8_q3b",
        query3("all", "not exists", "b", 1, 30, 6000, 25),
        id="fig8-q3b",
    ),
    pytest.param(
        "fig9_q3c", query3("any", "exists", "c", 1, 30, 6000, 25), id="fig9-q3c"
    ),
]


def check_golden(name: str, text: str, update: bool) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if update:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return
    assert os.path.exists(path), (
        f"golden file {name} is missing — generate it with "
        "pytest --update-golden"
    )
    with open(path) as handle:
        expected = handle.read()
    assert text + "\n" == expected, (
        f"{name} drifted from its golden file; if the change is "
        "intentional, regenerate with pytest --update-golden"
    )


class TestExplainGolden:
    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_plan_text(self, tiny_tpch, update_golden, stem, sql):
        plan = repro.connect(tiny_tpch).prepare(sql).explain()
        assert plan.chosen == "nested-relational-vectorized"
        check_golden(f"explain_{stem}.txt", plan.render("text"), update_golden)

    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES[:1])
    def test_plan_json(self, tiny_tpch, update_golden, stem, sql):
        plan = repro.connect(tiny_tpch).prepare(sql).explain()
        check_golden(f"explain_{stem}.json", plan.render("json"), update_golden)


class TestExplainAnalyzeGolden:
    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_annotated_trace_text(self, tiny_tpch, update_golden, stem, sql):
        plan = repro.connect(tiny_tpch).prepare(sql).explain(
            analyze=True, timings=False
        )
        assert plan.analysis is not None
        check_golden(f"analyze_{stem}.txt", plan.analysis, update_golden)

    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES[:1])
    def test_analyze_is_deterministic(self, tiny_tpch, stem, sql):
        def fresh():
            return repro.connect(tiny_tpch).prepare(sql)

        first = fresh().explain(analyze=True, timings=False)
        second = fresh().explain(analyze=True, timings=False)
        assert first.analysis == second.analysis

    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES[:1])
    def test_analysis_is_the_sessions_execution(self, tiny_tpch, stem, sql):
        """The analysed run goes through the session: its second
        execution finds the reduced blocks the first one cached."""
        prepared = repro.connect(tiny_tpch).prepare(sql)
        first = prepared.explain(analyze=True, timings=False)
        second = prepared.explain(analyze=True, timings=False)
        assert "cache=miss" in first.analysis
        assert "cache=hit" in second.analysis
        assert "cache=miss" not in second.analysis

    @pytest.mark.parametrize(
        "options",
        [
            repro.ExecutionOptions(backend="row"),
            repro.ExecutionOptions(logic="2vl"),
            repro.ExecutionOptions(backend="row", logic="2vl", threads=2),
        ],
        ids=["row", "2vl", "row-2vl-threads"],
    )
    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_analysis_runs_what_the_plan_chose(
        self, micro_tpch, stem, sql, options
    ):
        plan = repro.connect(micro_tpch).prepare(sql).explain(
            analyze=True, options=options
        )
        (root,) = plan.spans["spans"]
        assert root["name"] == "execute"
        assert root["attrs"]["strategy"] == plan.chosen
        backend = repro.strategies.info(plan.chosen).backend
        assert backend == (options.backend or "vector")

    def test_analysis_runs_under_the_requested_logic(self, paper_db):
        """Row 4 of R has A = B = NULL: ``not (A = B)`` is UNKNOWN under
        3VL and TRUE under 2VL, and the analysed execution says so."""
        prepared = repro.connect(paper_db).prepare(
            "select R.D from R where not (R.A = R.B)"
        )
        three = prepared.explain(analyze=True)
        two = prepared.explain(
            analyze=True, options=repro.ExecutionOptions(logic="2vl")
        )
        assert three.analysis.splitlines()[-1].startswith("3 row(s)")
        assert two.analysis.splitlines()[-1].startswith("4 row(s)")
