"""Figure 8 — Query 3b: negative ``< ALL`` + ``NOT EXISTS``,
tree-correlated — the paper's worst case for the native approach.

"System A is unable to use antijoin in these queries, even though the
NOT NULL constraint is present": nested iteration over all three blocks,
with variant-dependent index choices.  The nested relational approach
is unaffected by the operators or the correlated-predicate variants.
"""

import pytest

import repro
from repro.bench import PAPER_STRATEGIES, figure6_query2b, figure8_query3b
from repro.bench.figures import Q23_OUTER_FRACTIONS, _q23_availqty, _q23_sizes
from repro.baselines.native import NESTED_ITERATION, SystemAEmulationStrategy
from repro.strategies import make as make_strategy
from repro.tpch import query3


@pytest.mark.parametrize("variant", ["a", "b", "c"])
@pytest.mark.parametrize("strategy", PAPER_STRATEGIES)
def test_fig8_largest_point(benchmark, bench_db, strategy, variant):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query3("all", "not exists", variant, lo, hi, _q23_availqty(bench_db), 25)
    prepared = repro.connect(bench_db).prepare(sql)
    query = prepared.query
    impl = make_strategy(strategy)
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=1, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


def test_fig8_series_shape(benchmark, bench_db, bench_db_not_null):
    exps = benchmark.pedantic(
        lambda: figure8_query3b(bench_db), rounds=1, iterations=1
    )
    print()
    for variant in "abc":
        print(exps[variant].format_table("seconds"))
        print(exps[variant].format_table("cost"))

    # Even WITH the NOT NULL constraint, no antijoin for Query 3's shape.
    lo, hi = _q23_sizes(bench_db_not_null, Q23_OUTER_FRACTIONS)[0]
    sql = query3(
        "all", "not exists", "a", lo, hi, _q23_availqty(bench_db_not_null), 25
    )
    q = repro.compile_sql(sql, bench_db_not_null)
    plan = SystemAEmulationStrategy().plan(q, bench_db_not_null)
    assert plan[2].action == NESTED_ITERATION
    assert plan[3].action == NESTED_ITERATION

    for variant in "abc":
        native = [
            p.measurements["system-a-native"].cost for p in exps[variant].points
        ]
        nr = [
            p.measurements["nested-relational"].cost for p in exps[variant].points
        ]
        assert native == sorted(native)
        assert all(n > r for n, r in zip(native, nr))
    # variant (b)'s uncovered partkey inequality fetches far more rows
    native_a = exps["a"].points[-1].measurements["system-a-native"].cost
    native_b = exps["b"].points[-1].measurements["system-a-native"].cost
    assert native_b > native_a * 1.5


def test_fig8_nr_insensitive_to_variant_and_operator(benchmark, bench_db):
    """NR cost is ~identical across Q3b variants AND ~equal to its
    Query 2b cost: the uniform-treatment claim at the heart of Section 5."""

    def both():
        return figure8_query3b(bench_db), figure6_query2b(bench_db)

    exps8, exp6 = benchmark.pedantic(both, rounds=1, iterations=1)
    base = [p.measurements["nested-relational"].cost for p in exps8["a"].points]
    for variant in "bc":
        other = [
            p.measurements["nested-relational"].cost
            for p in exps8[variant].points
        ]
        for a, b in zip(base, other):
            assert abs(a - b) / max(a, b) < 0.35
    q2b = [p.measurements["nested-relational"].cost for p in exp6.points]
    for a, b in zip(base, q2b):
        assert abs(a - b) / max(a, b) < 0.25
