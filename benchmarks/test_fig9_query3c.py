"""Figure 9 — Query 3c: positive ``< ANY`` + ``EXISTS``, tree-correlated.

Both operators are positive, but the tree correlation still prevents a
clean semijoin pipeline: System A "always tries to unnest the third
query block for the EXISTS linking predicate" via index nested-loop
joins — per-tuple work that grows with the outer block, though the
EXISTS/ANY short-circuiting makes it cheaper than Figure 8's negative
operators.  The nested relational approach remains flat and
operator-insensitive.
"""

import pytest

import repro
from repro.bench import PAPER_STRATEGIES, figure8_query3b, figure9_query3c
from repro.bench.figures import Q23_OUTER_FRACTIONS, _q23_availqty, _q23_sizes
from repro.strategies import make as make_strategy
from repro.tpch import query3


@pytest.mark.parametrize("variant", ["a", "b", "c"])
@pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
def test_fig9_largest_point(benchmark, bench_db, strategy, variant):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query3("any", "exists", variant, lo, hi, _q23_availqty(bench_db), 25)
    prepared = repro.connect(bench_db).prepare(sql)
    query = prepared.query
    impl = make_strategy(strategy)
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=1, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


def test_fig9_series_shape(benchmark, bench_db):
    def both():
        return figure9_query3c(bench_db), figure8_query3b(bench_db)

    exps9, exps8 = benchmark.pedantic(both, rounds=1, iterations=1)
    print()
    for variant in "abc":
        print(exps9[variant].format_table("seconds"))
        print(exps9[variant].format_table("cost"))

    for variant in "abc":
        native9 = [
            p.measurements["system-a-native"].cost for p in exps9[variant].points
        ]
        nr9 = [
            p.measurements["nested-relational"].cost for p in exps9[variant].points
        ]
        native8 = [
            p.measurements["system-a-native"].cost for p in exps8[variant].points
        ]
        # native grows with the outer block for the positive operators too
        assert native9 == sorted(native9)
        # and short-circuiting keeps Figure 9's native no worse than
        # Figure 8's at the largest point (the index nested loops stop at
        # the first witness either way, so the two can land very close)
        assert native9[-1] <= native8[-1] * 1.05
        # NR flat, and insensitive to the operator flip (fig8 vs fig9)
        nr8 = [
            p.measurements["nested-relational"].cost for p in exps8[variant].points
        ]
        for a, b in zip(nr9, nr8):
            assert abs(a - b) / max(a, b) < 0.35
