"""Tests for the typed EXPLAIN result (:class:`repro.core.plan.Plan`):
render formats, the ``auto`` estimate, the analyze attachment, and
backward compatibility with string-style substring checks.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.core.plan import PLAN_FORMATS, Plan
from repro.engine import Column, Database
from repro.engine.trace import validate_trace_dict
from repro.errors import InvalidArgumentError
from repro.options import ExecutionOptions

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
        assert auto_plan.fingerprint is not None
        assert auto_plan.feedback_epoch == 0
        assert auto_plan.est_rows is not None

    def test_text_render(self, auto_plan):
        text = auto_plan.render("text")
        assert text == f"auto -> {auto_plan.chosen}\n\n{auto_plan.operators}"
        assert str(auto_plan) == text

    def test_json_render_round_trips(self, auto_plan):
        doc = json.loads(auto_plan.render("json"))
        assert doc["strategy"] == "auto"
        assert doc["chosen"] == auto_plan.chosen
        assert doc["est_rows"] == round(auto_plan.est_rows, 1)
        assert doc["fingerprint"] == auto_plan.fingerprint
        assert isinstance(doc["operators"], list)

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
        assert plan.fingerprint is None
        assert "auto ->" not in plan.render("text")
        doc = json.loads(plan.render("json"))
        assert "est_rows" not in doc
        assert "fingerprint" not in doc


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
