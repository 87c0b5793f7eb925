"""Golden planner-choice tests: what ``auto`` picks for the six paper
queries (Figures 4-9) at SF 0.01 (generated data) and SF 0.1 (seeded
row counts on the same instance, so the test stays fast).

These pin the cost model's behavior at paper scale: the vectorized
nested-relational strategy wins every figure query once the input
amortizes the batch-build setup, and restricted to the row backend the
single-pass optimized pipeline wins — with the runner-up orderings
documented per query, at SF 0.01 and at the row benchmark's SF 0.001.  An intentional cost-model change should update
these expectations alongside ``benchmarks/BENCH_planner.json``.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.optimizer import choose
from repro.core.stats import set_table_stats
from repro.tpch import TpchConfig, generate, query1, query2, query3

#: the six figure queries, keyed by golden-file stem
PAPER_QUERIES = {
    "fig4_q1": query1("1992-01-01", "1994-06-01"),
    "fig5_q2a": query2("any", 1, 30, 6000, 25),
    "fig6_q2b": query2("all", 1, 30, 6000, 25),
    "fig7_q3a": query3("all", "exists", "a", 1, 30, 6000, 25),
    "fig8_q3b": query3("all", "not exists", "b", 1, 30, 6000, 25),
    "fig9_q3c": query3("any", "exists", "c", 1, 30, 6000, 25),
}

#: expected (chosen, runner-up) restricted to the row backend, at SF 0.01
#: and at SF 0.001
ROW_CHOICE = {
    "fig4_q1": ("nested-relational-optimized", "nested-relational"),
    "fig5_q2a": ("nested-relational-optimized", "classical-unnesting"),
    "fig6_q2b": ("nested-relational-optimized", "nested-relational"),
    "fig7_q3a": ("nested-relational-optimized", "nested-relational"),
    "fig8_q3b": ("nested-relational-optimized", "nested-relational"),
    "fig9_q3c": ("nested-relational-optimized", "nested-relational"),
}

#: TPC-H SF 0.1 row counts, seeded as statistic overrides
SF01_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 1_000,
    "customer": 15_000,
    "part": 20_000,
    "partsupp": 80_000,
    "orders": 150_000,
    "lineitem": 600_572,
}


@pytest.fixture(scope="module")
def sf001():
    return generate(TpchConfig(scale_factor=0.01, seed=42))


@pytest.fixture(scope="module")
def sf0001():
    return generate(TpchConfig(scale_factor=0.001, seed=42))


@pytest.fixture(scope="module")
def sf01_seeded():
    """A second SF 0.01 instance whose *statistics* claim SF 0.1."""
    db = generate(TpchConfig(scale_factor=0.01, seed=42))
    for table, rows in SF01_ROWS.items():
        set_table_stats(db, table, row_count=rows)
    return db


@pytest.mark.parametrize("stem", sorted(PAPER_QUERIES))
class TestPaperQueryChoices:
    def test_sf001_chooses_vectorized(self, sf001, stem):
        query = repro.compile_sql(PAPER_QUERIES[stem], sf001)
        decision = choose(query, sf001)
        assert decision.chosen == "nested-relational-vectorized", stem

    def test_sf01_chooses_vectorized(self, sf01_seeded, stem):
        query = repro.compile_sql(PAPER_QUERIES[stem], sf01_seeded)
        decision = choose(query, sf01_seeded)
        assert decision.chosen == "nested-relational-vectorized", stem

    @pytest.mark.parametrize("scale", ["sf001", "sf0001"])
    def test_row_backend_choice_and_runner_up(self, request, scale, stem):
        db = request.getfixturevalue(scale)
        query = repro.compile_sql(PAPER_QUERIES[stem], db)
        decision = choose(query, db, backend="row")
        chosen, runner_up = ROW_CHOICE[stem]
        assert decision.chosen == chosen, stem
        assert decision.candidates[1].name == runner_up, stem

    def test_decision_meets_acceptance_shape(self, sf001, stem):
        """Every auto decision on a paper query enumerates at least two
        costed candidates and picks the cheapest (the PR's acceptance
        criterion for the planner span)."""
        query = repro.compile_sql(PAPER_QUERIES[stem], sf001)
        decision = choose(query, sf001)
        costed = [c for c in decision.candidates if c.costed]
        assert len(costed) >= 2
        assert decision.est_cost == min(c.est_cost for c in decision.candidates)


class TestScaleSensitivity:
    def test_seeded_scale_raises_costs_tenfold(self, sf001, sf01_seeded):
        sql = PAPER_QUERIES["fig4_q1"]
        small = choose(repro.compile_sql(sql, sf001), sf001)
        large = choose(repro.compile_sql(sql, sf01_seeded), sf01_seeded)
        assert large.est_cost > 5 * small.est_cost

    def test_not_exists_is_priced_dearest(self, sf01_seeded):
        """Figure 8's NOT EXISTS link keeps unmatched outer rows in
        play, which the estimator prices well above the EXISTS dual."""
        q3a = choose(
            repro.compile_sql(PAPER_QUERIES["fig7_q3a"], sf01_seeded),
            sf01_seeded,
        )
        q3b = choose(
            repro.compile_sql(PAPER_QUERIES["fig8_q3b"], sf01_seeded),
            sf01_seeded,
        )
        assert q3b.est_cost > q3a.est_cost
