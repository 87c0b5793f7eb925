"""Figure 4 — Query 1: one-level ``> ALL`` (orders vs lineitem).

Paper result: both nested relational variants beat the native approach,
which evaluates the ALL subquery by nested iteration (the NOT NULL
constraint being absent); native time grows with the outer block size
while the nested relational time tracks the (flat) intermediate result.

Reproduction: the weighted cost series shows exactly that shape — native
grows linearly with the outer block and crosses the flat nested
relational cost — while raw wall time on an in-RAM engine favours
nested iteration's few probes at small absolute scale (recorded and
discussed in EXPERIMENTS.md).
"""

import pytest

import repro
from repro.bench import PAPER_STRATEGIES, figure4_query1
from repro.bench.figures import Q1_OUTER_FRACTIONS, _q1_windows
from repro.strategies import make as make_strategy
from repro.tpch import query1


@pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
def test_fig4_largest_point(benchmark, bench_db, strategy):
    """Wall time of each strategy at the largest outer block (16K-scaled)."""
    lo, hi = _q1_windows(bench_db, Q1_OUTER_FRACTIONS)[-1]
    prepared = repro.connect(bench_db).prepare(query1(lo, hi))
    query = prepared.query
    impl = make_strategy(strategy)
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=3, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


def test_fig4_series_shape(benchmark, bench_db):
    """Regenerate the full Figure 4 series and check its shape."""
    exp = benchmark.pedantic(
        lambda: figure4_query1(bench_db), rounds=1, iterations=1
    )
    print()
    print(exp.format_table("seconds"))
    print(exp.format_table("cost"))

    native = [p.measurements["system-a-native"].cost for p in exp.points]
    nr = [p.measurements["nested-relational"].cost for p in exp.points]
    opt = [p.measurements["nested-relational-optimized"].cost for p in exp.points]

    # native cost grows with the outer block size...
    assert native == sorted(native)
    assert native[-1] > native[0] * 2
    # ...while the nested relational approaches stay nearly flat...
    assert nr[-1] < nr[0] * 1.5
    assert opt[-1] < opt[0] * 1.5
    # ...and win at the largest block (the paper's verdict for Query 1).
    assert nr[-1] < native[-1]
    assert opt[-1] < native[-1]
