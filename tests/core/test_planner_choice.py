"""What ``auto`` picks for the six paper queries (Figures 4-9) at
SF 0.01 (generated data) and under statistics that claim SF 0.1 (the
same instance with TPC-H SF 0.1 row counts reported, so the test stays
fast): the vectorized nested-relational strategy, whatever the
statistics say.  The rule itself, across backends, budgets and query
shapes — and the proof that it reads no statistics — is
``test_auto_rule.py``.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

import repro
from repro.core import stats
from repro.core.optimizer import choose
from repro.core.stats import PlanStats, collect_stats
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

#: TPC-H SF 0.1 row counts, reported in place of the measured ones
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


@pytest.fixture()
def sf01_stats(monkeypatch):
    """Every binding of ``collect_stats`` reports SF 0.1 row counts."""
    original = stats.collect_stats

    def scaled(db):
        measured = original(db)
        for name, rows in SF01_ROWS.items():
            measured.tables[name] = dataclasses.replace(
                measured.tables[name], row_count=rows
            )
        return measured

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "collect_stats", None) is original
        ):
            monkeypatch.setattr(module, "collect_stats", scaled)


@pytest.mark.parametrize("stem", sorted(PAPER_QUERIES))
class TestPaperQueryChoices:
    def test_sf001_chooses_vectorized(self, sf001, stem):
        query = repro.compile_sql(PAPER_QUERIES[stem], sf001)
        decision = choose(query, sf001)
        assert decision.chosen == "nested-relational-vectorized", stem

    def test_sf01_chooses_vectorized(self, sf001, sf01_stats, stem):
        prepared = repro.connect(sf001).prepare(PAPER_QUERIES[stem])
        plan = prepared.explain()
        assert choose(prepared.query, sf001).chosen == plan.chosen
        assert plan.chosen == "nested-relational-vectorized", stem
        # the estimator saw the SF 0.1 figures; the choice did not care
        root = prepared.query.root.index
        measured = PlanStats(prepared.query, collect_stats(sf001))
        claimed = PlanStats(prepared.query, stats.collect_stats(sf001))
        assert claimed.base_rows[root] > measured.base_rows[root]
