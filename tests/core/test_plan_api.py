"""Tests for the typed EXPLAIN result (:class:`repro.core.plan.Plan`):
render formats, the ``auto`` estimate, the analyze attachment, and
backward compatibility with string-style substring checks.
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
        assert auto_plan.est_rows is not None
        # the estimate is the statistics' alone: no plan key, no epoch
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
        assert doc["est_rows"] == round(auto_plan.est_rows, 1)
        assert isinstance(doc["operators"], list)
        assert not {"fingerprint", "feedback_epoch"} & set(doc)

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
        assert plan.est_rows is None
        assert "auto ->" not in plan.render("text")
        doc = json.loads(plan.render("json"))
        assert "est_rows" not in doc


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


class TestBuildPlan:
    def test_default_request_is_auto(self, db):
        plan = repro.connect(db).prepare(SQL).explain()
        assert plan.strategy == "auto"
        assert plan.est_rows is not None

    def test_threads_leave_the_choice_alone(self, db):
        prepared = repro.connect(db).prepare(SQL)
        plan = prepared.explain(options=ExecutionOptions(threads=4))
        single = prepared.explain()
        assert plan.chosen == single.chosen == "nested-relational-vectorized"


class TestStableEstimate:
    """An ``auto`` EXPLAIN reports what the statistics say, however many
    traced runs came before: the estimate is never replaced by actuals,
    so its error stays visible beside EXPLAIN ANALYZE's real counts."""

    @pytest.fixture()
    def correlated(self):
        """``r.a`` and ``r.b`` are the same column under two names, so
        ``r.a = 0 and r.b = 0`` keeps 1/5 of ``r`` where independence
        predicts 1/25."""
        d = Database()
        d.create_table(
            "r",
            [Column("k", not_null=True), Column("a"), Column("b")],
            [(i, i % 5, i % 5) for i in range(800)],
            primary_key="k",
        )
        d.create_table(
            "s",
            [Column("k", not_null=True), Column("rk"), Column("v")],
            [(i, i % 800, i % 11) for i in range(3000)],
            primary_key="k",
        )
        return d

    CORRELATED_SQL = (
        "select r.k from r where r.a = 0 and r.b = 0 and exists "
        "(select * from s where s.rk = r.k)"
    )

    def test_tracing_leaves_the_estimate_alone(self, correlated):
        prepared = repro.connect(correlated).prepare(self.CORRELATED_SQL)
        before = prepared.explain()
        for _ in range(3):
            result, _trace = prepared.trace()
        after = prepared.explain()
        assert after.est_rows == before.est_rows
        assert after.render("json") == before.render("json")
        # the independence estimate is off by more than 4x, and says so
        assert len(result) == 160
        assert before.est_rows < len(result) / 4

    def test_analyze_reports_the_estimate_beside_the_actual_count(
        self, correlated
    ):
        prepared = repro.connect(correlated).prepare(self.CORRELATED_SQL)
        first = prepared.explain(analyze=True, timings=False)
        second = prepared.explain(analyze=True, timings=False)
        assert first.spans["spans"][0]["counters"]["rows_out"] == 160
        assert second.spans["spans"][0]["counters"]["rows_out"] == 160
        # the earlier analyzed run does not turn the estimate into 160
        assert second.est_rows == first.est_rows == prepared.explain().est_rows
        assert second.est_rows < 160 / 4

    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_paper_query_estimates_survive_tracing(self, tiny_tpch, stem, sql):
        prepared = repro.connect(tiny_tpch).prepare(sql)
        before = prepared.explain()
        prepared.trace(backend="row")
        for _ in range(2):
            prepared.trace()
        after = prepared.explain()
        assert after.est_rows == before.est_rows, stem
        assert after.render("json") == before.render("json"), stem


class TestNoFeedbackSurface:
    """The trace-feedback loop is gone: no store, no plan key, no
    statistic overrides, and no session parameter to pass one in."""

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.core", "FeedbackStore"),
            ("repro.core", "plan_fingerprint"),
            ("repro.core", "set_table_stats"),
            ("repro.core.stats", "clear_stat_overrides"),
        ],
    )
    def test_name_is_not_exported(self, module, name):
        assert not hasattr(importlib.import_module(module), name)

    def test_feedback_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.feedback")

    def test_session_takes_no_feedback_store(self, db):
        with pytest.raises(TypeError):
            repro.Session(db, feedback=None)
        assert not hasattr(repro.connect(db), "feedback")
