"""Unit tests for the cost-based planner (:mod:`repro.core.optimizer`).

The planner's contract: enumerate every applicable registered strategy,
price each one, pick the cheapest — with aliases never candidates of
their own, uncosted third-party strategies priced pessimistically, and
feedback observations overriding the estimates.
"""

from __future__ import annotations

import pytest

import repro
from repro import strategies as registry
from repro.core.compute import NestedRelationalStrategy
from repro.core.feedback import FeedbackStore
from repro.core.optimizer import (
    DEFAULT_COST_FACTOR,
    PlannerDecision,
    choose,
    default_cost,
    plan_fingerprint,
    strategy_applicable,
)
from repro.core.stats import ColumnStats, PlanStats, collect_stats, set_table_stats
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
        assert len(decision.candidates) >= 2
        chosen = [c for c in decision.candidates if c.chosen]
        assert len(chosen) == 1
        assert chosen[0].name == decision.chosen
        assert decision.est_cost == chosen[0].est_cost

    def test_candidates_sorted_cheapest_first(self, db, query):
        decision = choose(query, db)
        costs = [c.est_cost for c in decision.candidates]
        assert costs == sorted(costs)
        assert decision.candidates[0].chosen

    def test_winner_is_minimum_cost(self, db, query):
        decision = choose(query, db)
        best = min(c.est_cost for c in decision.candidates)
        assert decision.est_cost == best

    def test_all_builtin_candidates_are_costed(self, db, query):
        decision = choose(query, db)
        assert all(c.costed for c in decision.candidates)

    def test_parallel_alias_is_never_a_candidate(self, db, query):
        names = [c.name for c in choose(query, db).candidates]
        assert "nested-relational-parallel" not in names
        assert names.count("nested-relational-vectorized") == 1

    def test_vector_price_is_setup_plus_scaled_work(self, db, query):
        from repro.core.optimizer import VECTOR_FACTOR, VECTOR_SETUP
        from repro.core.stats import PlanStats, collect_stats

        def vector_cost(decision):
            (cand,) = [
                c for c in decision.candidates
                if c.name == "nested-relational-vectorized"
            ]
            return cand.est_cost

        ps = PlanStats(query, collect_stats(db))
        assert vector_cost(choose(query, db)) == (
            VECTOR_SETUP + VECTOR_FACTOR * ps.pipeline_work
        )

    def test_backend_filter(self, db, query):
        row = choose(query, db, backend="row")
        assert {c.backend for c in row.candidates} == {"row"}
        vec = choose(query, db, backend="vector")
        assert {c.backend for c in vec.candidates} == {"vector"}
        assert vec.chosen == "nested-relational-vectorized"

    def test_unsatisfiable_backend_raises(self, db, query):
        with pytest.raises(PlanError, match="no applicable strategy"):
            choose(query, db, backend="quantum")

    def test_tiny_input_prefers_row_engine(self, db, query):
        # 120 base rows of work cannot amortize the vector setup cost
        decision = choose(query, db)
        assert decision.candidates[0].backend == "row"

    def test_seeded_scale_flips_to_vector_engine(self, query):
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
        set_table_stats(
            d,
            "r",
            row_count=50_000,
            columns={"k": ColumnStats(ndv=50_000.0)},
        )
        set_table_stats(
            d,
            "s",
            row_count=200_000,
            columns={"rk": ColumnStats(ndv=50_000.0)},
        )
        q = repro.compile_sql(SQL, d)
        decision = choose(q, d)
        assert decision.candidates[0].backend == "vector"

    def test_describe_lists_candidates(self, db, query):
        text = choose(query, db).describe()
        assert text.startswith("auto -> ")
        assert "(cost-based)" in text
        assert "* " in text  # the winner is starred


class TestFeedbackIntegration:
    def test_epoch_stamps_decision(self, db, query):
        feedback = FeedbackStore()
        assert choose(query, db, feedback=feedback).feedback_epoch == 0
        fp = plan_fingerprint(query)
        feedback.record(fp, "reduce[T1]", 77)
        decision = choose(query, db, feedback=feedback)
        assert decision.feedback_epoch == 1

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


class TestUncostedStrategies:
    def test_default_cost_is_pessimistic(self, db, query):
        ps = PlanStats(query, collect_stats(db))
        assert default_cost(ps) == pytest.approx(
            DEFAULT_COST_FACTOR * ps.pipeline_work
        )

    def test_uncosted_candidate_participates_with_default(self, db, query):
        registry.register(
            "test-uncosted",
            backend="row",
            description="temporary uncosted strategy for the planner test",
        )(lambda: NestedRelationalStrategy())
        try:
            decision = choose(query, db)
            cand = next(
                c for c in decision.candidates if c.name == "test-uncosted"
            )
            assert not cand.costed
            ps = PlanStats(query, collect_stats(db))
            assert cand.est_cost == pytest.approx(default_cost(ps))
            # pessimistic pricing: never beats the identical costed entry
            costed = next(
                c
                for c in decision.candidates
                if c.name == "nested-relational"
            )
            assert cand.est_cost > costed.est_cost
            assert "(default cost)" in cand.describe()
        finally:
            registry.unregister("test-uncosted")

    def test_describe_marks_pricing(self):
        registry.register(
            "test-uncosted",
            backend="row",
            description="temporary uncosted strategy for the listing test",
        )(lambda: NestedRelationalStrategy())
        try:
            listing = registry.describe()
            line = next(
                ln for ln in listing.splitlines() if "test-uncosted" in ln
            )
            assert "default" in line
            costed_line = next(
                ln
                for ln in listing.splitlines()
                if ln.strip().startswith("nested-relational ")
            )
            assert "costed" in costed_line
        finally:
            registry.unregister("test-uncosted")
