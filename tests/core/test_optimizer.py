"""Unit tests for :mod:`repro.core.optimizer`: the applicability
protocol, plan fingerprints, and the feedback overrides EXPLAIN's
estimate reads.  What ``auto`` runs is pinned by
``tests/core/test_auto_rule.py``.
"""

from __future__ import annotations

import pytest

import repro
from repro import strategies as registry
from repro.core.compute import NestedRelationalStrategy
from repro.core.feedback import FeedbackStore
from repro.core.optimizer import (
    PlannerDecision,
    choose,
    plan_fingerprint,
    strategy_applicable,
)
from repro.core.stats import PlanStats, collect_stats
from repro.engine import Column, Database
from repro.errors import PlanError

SQL = "select r.k from r where exists (select * from s where s.rk = r.k)"


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(i, i % 3) for i in range(30)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("v")],
        [(i, i % 30, i % 5) for i in range(90)],
        primary_key="k",
    )
    return d


@pytest.fixture()
def query(db):
    return repro.compile_sql(SQL, db)


class TestChoose:
    def test_decision_shape(self, db, query):
        decision = choose(query, db)
        assert isinstance(decision, PlannerDecision)
        # the one choice, listed alone: nothing else was enumerated
        assert decision.candidates == (decision.chosen,)
        entry = registry.info(decision.chosen)
        assert type(decision.impl) is type(entry.make())

    def test_backend_filter(self, db, query):
        row = choose(query, db, backend="row")
        assert row.chosen == "nested-relational-optimized"
        assert registry.info(row.chosen).backend == "row"
        vec = choose(query, db, backend="vector")
        assert vec.chosen == "nested-relational-vectorized"
        assert registry.info(vec.chosen).backend == "vector"
        assert choose(query, db).chosen == vec.chosen

    def test_parallel_alias_is_never_a_candidate(self, db, query):
        for backend in (None, "row", "vector"):
            decision = choose(query, db, backend=backend)
            assert "nested-relational-parallel" not in decision.candidates
            assert decision.chosen != "nested-relational-parallel"

    def test_registered_strategy_leaves_the_rule_alone(self, db, query):
        before = {b: choose(query, db, backend=b).chosen
                  for b in (None, "row", "vector")}
        registry.register(
            "test-extra",
            backend="row",
            description="temporary strategy for the rule test",
        )(lambda: NestedRelationalStrategy())
        try:
            after = {b: choose(query, db, backend=b).chosen
                     for b in (None, "row", "vector")}
            assert after == before
            # still reachable by name
            assert registry.info("test-extra").backend == "row"
        finally:
            registry.unregister("test-extra")

    def test_unsatisfiable_backend_raises(self, db, query):
        with pytest.raises(PlanError, match="unknown backend"):
            choose(query, db, backend="quantum")


class TestFeedbackIntegration:
    def test_observed_rows_override_estimates(self, db, query):
        feedback = FeedbackStore()
        fp = plan_fingerprint(query)
        (child,) = query.root.children
        feedback.record(fp, f"reduce[T{child.index}]", 7)
        stats = collect_stats(db)
        ps = PlanStats(
            query, stats, overrides=feedback.block_overrides(fp)
        )
        assert ps.block_rows[child.index] == 7.0
        baseline = PlanStats(query, stats)
        assert baseline.block_rows[child.index] == 90.0


class TestFingerprint:
    def test_stable_across_recompiles(self, db):
        a = plan_fingerprint(repro.compile_sql(SQL, db))
        b = plan_fingerprint(repro.compile_sql(SQL, db))
        assert a == b

    def test_changed_constant_changes_fingerprint(self, db):
        a = plan_fingerprint(
            repro.compile_sql("select r.k from r where r.a > 1", db)
        )
        b = plan_fingerprint(
            repro.compile_sql("select r.k from r where r.a > 2", db)
        )
        assert a != b

    def test_different_shape_differs(self, db):
        flat = plan_fingerprint(repro.compile_sql("select r.k from r", db))
        nested = plan_fingerprint(repro.compile_sql(SQL, db))
        assert flat != nested


class TestApplicability:
    def test_no_guard_accepts_everything(self, db, query):
        class Bare:
            pass

        assert strategy_applicable(Bare(), query, db)

    def test_wrong_arity_guard_surfaces_its_type_error(self, db, query):
        """One protocol, ``applicable(query, db) -> Optional[str]``: a
        guard declared with another arity is not adapted to."""

        class OneArg:
            def applicable(self, q):
                return q.root.children == []

        with pytest.raises(TypeError, match="applicable"):
            strategy_applicable(OneArg(), query, db)

    def test_reason_protocol(self, db, query):
        class TwoArg:
            def applicable(self, q, database):
                return None if q.root.children else "flat queries only"

        assert strategy_applicable(TwoArg(), query, db)
        flat = repro.compile_sql("select r.k from r", db)
        assert not strategy_applicable(TwoArg(), flat, db)


    def test_error_inside_a_guard_is_not_a_missing_argument(self, db, query):
        """A TypeError raised *by* a guard surfaces as raised."""

        class Broken:
            def applicable(self, q, database):
                return len(None)

        with pytest.raises(TypeError, match="NoneType"):
            strategy_applicable(Broken(), query, db)
