"""Figure 6 — Query 2b: negative ``< ALL`` + ``NOT EXISTS``, linear.

Paper result: the ALL operator (on a NULLable ps_supplycost) blocks the
antijoin rewrite; the native approach must nested-iterate and "performs
significantly worse than the nested relational approach", growing with
the outer block size, while the nested relational series is flat and
essentially identical to its Figure 5 numbers (operator-independence).

Reproduction: the emulation's plan is NESTED_ITERATION at both levels;
its weighted cost grows linearly and exceeds the flat nested relational
cost at every point.
"""

import pytest

import repro
from repro.bench import PAPER_STRATEGIES, figure5_query2a, figure6_query2b
from repro.bench.figures import Q23_OUTER_FRACTIONS, _q23_availqty, _q23_sizes
from repro.baselines.native import NESTED_ITERATION, SystemAEmulationStrategy
from repro.strategies import make as make_strategy
from repro.tpch import query2


@pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
def test_fig6_largest_point(benchmark, bench_db, strategy):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query2("all", lo, hi, _q23_availqty(bench_db), 25)
    prepared = repro.connect(bench_db).prepare(sql)
    query = prepared.query
    impl = make_strategy(strategy)
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=3, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


def test_fig6_series_shape(benchmark, bench_db):
    exp = benchmark.pedantic(
        lambda: figure6_query2b(bench_db), rounds=1, iterations=1
    )
    print()
    print(exp.format_table("seconds"))
    print(exp.format_table("cost"))

    # plan check: ALL on NULLable ps_supplycost forces nested iteration
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[0]
    q = repro.compile_sql(query2("all", lo, hi, _q23_availqty(bench_db), 25), bench_db)
    plan = SystemAEmulationStrategy().plan(q, bench_db)
    assert plan[2].action == NESTED_ITERATION
    assert plan[3].action == NESTED_ITERATION

    native = [p.measurements["system-a-native"].cost for p in exp.points]
    nr = [p.measurements["nested-relational"].cost for p in exp.points]
    # native grows with the outer block and loses everywhere
    assert native == sorted(native)
    assert all(n > r for n, r in zip(native, nr))
    assert native[-1] > nr[-1] * 3


def test_fig5_vs_fig6_nested_relational_operator_independence(benchmark, bench_db):
    """The NR approach has 'similar performance on nested linear queries
    regardless of the linking operators' — same sizes, ANY vs ALL."""

    def both():
        return figure5_query2a(bench_db), figure6_query2b(bench_db)

    exp5, exp6 = benchmark.pedantic(both, rounds=1, iterations=1)
    for p5, p6 in zip(exp5.points, exp6.points):
        c5 = p5.measurements["nested-relational"].cost
        c6 = p6.measurements["nested-relational"].cost
        assert abs(c5 - c6) / max(c5, c6) < 0.25
