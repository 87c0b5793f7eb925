"""Figure 5 — Query 2a: mixed ``< ANY`` + ``NOT EXISTS``, linear.

Paper result: with only positive/NOT EXISTS operators the native
approach unnests everything into a semijoin + antijoin pipeline and is
*slightly better* than the nested relational approach (whose gap is
mostly the stored-procedure communication overhead); all series are flat
to mildly growing.

Reproduction: the System A emulation picks SEMIJOIN + ANTIJOIN (asserted
below), its cost stays within a small factor of the nested relational
cost, and nobody blows up with the outer block size.
"""

import pytest

import repro
from repro.bench import PAPER_STRATEGIES, figure5_query2a
from repro.bench.figures import Q23_OUTER_FRACTIONS, _q23_availqty, _q23_sizes
from repro.baselines.native import ANTIJOIN, SEMIJOIN, SystemAEmulationStrategy
from repro.strategies import make as make_strategy
from repro.tpch import query2


@pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
def test_fig5_largest_point(benchmark, bench_db, strategy):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query2("any", lo, hi, _q23_availqty(bench_db), 25)
    prepared = repro.connect(bench_db).prepare(sql)
    query = prepared.query
    impl = make_strategy(strategy)
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=3, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


def test_fig5_series_shape(benchmark, bench_db):
    exp = benchmark.pedantic(
        lambda: figure5_query2a(bench_db), rounds=1, iterations=1
    )
    print()
    print(exp.format_table("seconds"))
    print(exp.format_table("cost"))

    # the narrated plan: semijoin for ANY, antijoin for NOT EXISTS
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[0]
    q = repro.compile_sql(query2("any", lo, hi, _q23_availqty(bench_db), 25), bench_db)
    plan = SystemAEmulationStrategy().plan(q, bench_db)
    assert plan[2].action == SEMIJOIN
    assert plan[3].action == ANTIJOIN

    native = [p.measurements["system-a-native"].cost for p in exp.points]
    nr = [p.measurements["nested-relational"].cost for p in exp.points]
    # fully unnested native stays competitive: within 3x of NR everywhere
    # (the paper has it slightly *ahead*; our NR pays no IPC overhead)
    for n, r in zip(native, nr):
        assert n < 3 * r
    # and — unlike Figure 6 — native does not blow up with block size
    assert native[-1] < native[0] * 6
