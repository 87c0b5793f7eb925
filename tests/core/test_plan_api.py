"""Tests for the typed EXPLAIN result (:class:`repro.core.plan.Plan`):
render formats, the analyze attachment, and backward compatibility
with string-style substring checks.
"""

from __future__ import annotations

import importlib
import json

import pytest

import repro
from repro.core.plan import PLAN_FORMATS, Plan
from repro.engine import Column, Database
from repro.engine.trace import validate_trace_dict
from repro.errors import InvalidArgumentError
from repro.options import ExecutionOptions

from .test_explain_golden import PAPER_QUERIES

SQL = "select r.k from r where exists (select * from s where s.rk = r.k)"


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(i, i % 3) for i in range(20)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk")],
        [(i, i % 20) for i in range(60)],
        primary_key="k",
    )
    return d


@pytest.fixture()
def auto_plan(db):
    return repro.connect(db).prepare(SQL).explain()


class TestAutoPlan:
    def test_typed_fields(self, auto_plan):
        assert isinstance(auto_plan, Plan)
        assert auto_plan.sql == SQL
        assert auto_plan.strategy == "auto"
        assert auto_plan.chosen == "nested-relational-vectorized"
        # no plan key, no feedback epoch
        assert not hasattr(auto_plan, "fingerprint")
        assert not hasattr(auto_plan, "feedback_epoch")

    def test_text_render(self, auto_plan):
        text = auto_plan.render("text")
        assert text == f"auto -> {auto_plan.chosen}\n\n{auto_plan.operators}"
        assert str(auto_plan) == text

    def test_json_render_round_trips(self, auto_plan):
        doc = json.loads(auto_plan.render("json"))
        assert doc["strategy"] == "auto"
        assert doc["chosen"] == auto_plan.chosen
        assert isinstance(doc["operators"], list)
        assert set(doc) == {"sql", "strategy", "chosen", "operators"}

    def test_substring_compatibility(self, auto_plan):
        # legacy callers treated explain() results as text
        assert "auto ->" in auto_plan
        assert "no-such-text" not in auto_plan
        assert 42 not in auto_plan

    def test_unknown_format_rejected(self, auto_plan):
        assert PLAN_FORMATS == ("text", "json")
        with pytest.raises(InvalidArgumentError, match="yaml"):
            auto_plan.render("yaml")


class TestFixedPlan:
    def test_fixed_strategy_skips_the_planner(self, db):
        plan = repro.connect(db).prepare(SQL).explain(
            strategy="nested-relational"
        )
        assert plan.chosen == "nested-relational"
        assert "auto ->" not in plan.render("text")
        doc = json.loads(plan.render("json"))
        assert set(doc) == {"sql", "strategy", "chosen", "operators"}


class TestAnalyze:
    def test_analysis_attached(self, db):
        plan = repro.connect(db).prepare(SQL).explain(
            analyze=True, timings=False
        )
        assert plan.analysis is not None
        assert plan.spans is not None
        text = plan.render("text")
        assert plan.analysis in text
        doc = json.loads(plan.render("json"))
        assert "analysis" in doc and "spans" in doc

    def test_spans_are_schema_valid(self, db):
        plan = repro.connect(db).prepare(SQL).explain(analyze=True)
        validate_trace_dict(plan.spans)
        assert plan.spans["version"] == 4

    @pytest.mark.parametrize("backend", [None, "row"])
    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_actual_rows_are_the_result_rows(
        self, tiny_tpch, stem, sql, backend
    ):
        """The cardinality EXPLAIN ANALYZE reports is the result's: the
        root span's ``rows_out`` and the closing row count."""
        prepared = repro.connect(tiny_tpch).prepare(sql)
        options = ExecutionOptions(backend=backend)
        rows = len(prepared.execute(options=options))
        plan = prepared.explain(analyze=True, timings=False, options=options)
        assert plan.spans["spans"][0]["counters"]["rows_out"] == rows, stem
        assert plan.analysis.splitlines()[-1].startswith(f"{rows} row(s);")


class TestBuildPlan:
    def test_default_request_is_auto(self, db):
        plan = repro.connect(db).prepare(SQL).explain()
        assert plan.strategy == "auto"

    def test_threads_leave_the_choice_alone(self, db):
        prepared = repro.connect(db).prepare(SQL)
        plan = prepared.explain(options=ExecutionOptions(threads=4))
        single = prepared.explain()
        assert plan.chosen == single.chosen == "nested-relational-vectorized"


class TestStableExplain:
    """Traced runs change nothing an ``auto`` EXPLAIN shows."""

    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_traced_runs_leave_an_auto_explain_byte_identical(
        self, tiny_tpch, stem, sql
    ):
        prepared = repro.connect(tiny_tpch).prepare(sql)
        before = prepared.explain()
        prepared.trace(backend="row")
        for _ in range(2):
            prepared.trace()
        after = prepared.explain()
        assert after.render("json") == before.render("json"), stem


class TestNoFeedbackSurface:
    """The trace-feedback loop and the cardinality estimator it fed are
    gone: no store, no plan key, no statistics, no estimate, and no
    session parameter to pass a store in."""

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.core", "FeedbackStore"),
            ("repro.core", "plan_fingerprint"),
            ("repro.core", "set_table_stats"),
            ("repro.core", "clear_stat_overrides"),
            ("repro.core", "collect_stats"),
            ("repro.core", "PlanStats"),
        ],
    )
    def test_name_is_not_exported(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("module", ["repro.core.feedback", "repro.core.stats"])
    def test_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_session_takes_no_feedback_store(self, db):
        with pytest.raises(TypeError):
            repro.Session(db, feedback=None)
        assert not hasattr(repro.connect(db), "feedback")
