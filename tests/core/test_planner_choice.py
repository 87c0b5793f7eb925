"""What ``auto`` picks for the six paper queries (Figures 4-9) at
SF 0.01 (generated data) and SF 0.1 (seeded row counts on the same
instance, so the test stays fast): the vectorized nested-relational
strategy, whatever the statistics say.  The rule itself, across
backends, budgets and query shapes, is ``test_auto_rule.py``.
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
