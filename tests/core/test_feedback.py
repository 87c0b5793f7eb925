"""EXPLAIN's feedback loop: unit tests for :class:`FeedbackStore` and
the end-to-end convergence scenario — a seeded mis-estimate makes
EXPLAIN's ``est_rows`` tiny, one traced execution teaches the session
the real cardinalities, and the next EXPLAIN estimates from them.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.feedback import FeedbackStore
from repro.core.optimizer import plan_fingerprint
from repro.core.stats import set_table_stats
from repro.engine import Column, Database

SQL = "select r.k from r where exists (select * from s where s.rk = r.k)"

def build_db(outer_rows: int = 800, inner_rows: int = 3000) -> Database:
    db = Database()
    db.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(i, i % 5) for i in range(outer_rows)],
        primary_key="k",
    )
    db.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("v")],
        [(i, i % outer_rows, i % 11) for i in range(inner_rows)],
        primary_key="k",
    )
    return db


class TestFeedbackStore:
    def test_record_bumps_epoch_once_per_change(self):
        store = FeedbackStore()
        store.record("fp", "reduce[T0]", 10)
        assert store.epoch == 1
        store.record("fp", "reduce[T0]", 10)  # identical: no bump
        assert store.epoch == 1
        store.record("fp", "reduce[T0]", 12)
        assert store.epoch == 2
        assert len(store) == 1

    def test_block_overrides_parse_span_names(self):
        store = FeedbackStore()
        store.record("fp", "reduce[T0]", 10)
        store.record("fp", "reduce[T3]", 7)
        store.record("fp", "execute", 4)
        store.record("other", "reduce[T0]", 99)
        assert store.block_overrides("fp") == {0: 10, 3: 7}
        assert store.out_rows("fp") == 4
        assert store.out_rows("missing") is None
        assert store.observations("fp") == {
            "reduce[T0]": 10,
            "reduce[T3]": 7,
            "execute": 4,
        }

    def test_clear_forgets_and_bumps(self):
        store = FeedbackStore()
        store.clear()  # empty: nothing to forget, epoch untouched
        assert store.epoch == 0
        store.record("fp", "execute", 1)
        store.clear()
        assert len(store) == 0
        assert store.epoch == 2

    def test_observe_harvests_trace(self):
        db = build_db(40, 120)
        session = repro.connect(db)
        query = session.prepare(SQL)
        result, trace = query.trace(strategy="nested-relational")
        store = FeedbackStore()
        fp = plan_fingerprint(query.query)
        seen = store.observe(fp, trace)
        assert seen >= 2  # the root span plus one reduce span per block
        assert store.out_rows(fp) == len(result)
        overrides = store.block_overrides(fp)
        assert overrides[query.query.root.index] == 40
        (child,) = query.query.root.children
        assert overrides[child.index] == 120


class TestConvergence:
    @pytest.fixture()
    def misestimated(self):
        """Real data is 800x3000 rows; the seeded statistics claim the
        tables are nearly empty, so estimate-driven costs favor the row
        engine."""
        db = build_db()
        set_table_stats(db, "r", row_count=2)
        set_table_stats(db, "s", row_count=4)
        return db

    def test_observations_replace_the_estimate(self, misestimated):
        session = repro.connect(misestimated)
        query = session.prepare(SQL)

        first = query.explain()
        assert first.feedback_epoch == 0
        assert first.est_rows <= 2  # fooled by the seed

        query.trace()
        second = query.explain()
        assert second.feedback_epoch > 0
        # the observed 800-row outer block replaces the seeded 2
        assert second.est_rows > 100 * first.est_rows
        assert second.chosen == first.chosen  # the estimate never picks

    def test_converges_after_one_observation(self, misestimated):
        session = repro.connect(misestimated)
        query = session.prepare(SQL)
        query.trace()
        settled = query.explain()
        epoch = session.feedback.epoch
        # re-observing identical cardinalities teaches nothing new
        query.trace()
        assert session.feedback.epoch == epoch
        assert query.explain().chosen == settled.chosen

    def test_feedback_is_per_session(self, misestimated):
        taught = repro.connect(misestimated)
        taught.prepare(SQL).trace()
        assert taught.feedback.epoch > 0
        fresh = repro.connect(misestimated)
        assert fresh.feedback.epoch == 0
        assert fresh.prepare(SQL).explain().feedback_epoch == 0

    def test_untraced_execution_does_not_observe(self, misestimated):
        session = repro.connect(misestimated)
        query = session.prepare(SQL)
        query.execute()
        assert session.feedback.epoch == 0

    def test_fixed_strategy_traces_also_teach(self, misestimated):
        """The fingerprint is strategy-independent, so a traced run
        under a *fixed* strategy still feeds the ``auto`` EXPLAIN."""
        session = repro.connect(misestimated)
        query = session.prepare(SQL)
        before = query.explain().est_rows
        query.trace(strategy="nested-relational")
        assert session.feedback.epoch > 0
        assert query.explain().est_rows > 100 * before
