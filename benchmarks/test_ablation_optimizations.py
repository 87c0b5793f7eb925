"""A-OPT — ablation across the nested relational variants (Section 4.2)
and the related-work baselines (Section 2) on the linear Query 2b.

What the design calls out:

* the optimized single-pass pipeline sorts once where the original
  approach re-nests per level;
* bottom-up evaluation (linear correlation) keeps intermediate results
  small — only qualified tuples join upward;
* the count-rewrite and Boolean-aggregate baselines compute the same
  answers through grouped aggregation (the "special operators" the paper
  argues are unnecessary).
"""

import pytest

import repro
from repro.bench import ablation_optimizations
from repro.bench.figures import (
    Q23_OUTER_FRACTIONS,
    QUANTITY_EQ,
    _q23_availqty,
    _q23_sizes,
)
from repro.baselines import BooleanAggregateStrategy, CountRewriteStrategy
from repro.strategies import make as make_strategy
from repro.engine.metrics import collect
from repro.tpch import query2

NR_VARIANTS = (
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-relational-bottomup",
)


@pytest.mark.parametrize("strategy", NR_VARIANTS)
def test_nr_variant_wall_time(benchmark, bench_db, strategy):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query2("all", lo, hi, _q23_availqty(bench_db), QUANTITY_EQ)
    prepared = repro.connect(bench_db).prepare(sql)
    query = prepared.query
    impl = make_strategy(strategy)
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=3, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


@pytest.mark.parametrize(
    "baseline_cls", [CountRewriteStrategy, BooleanAggregateStrategy]
)
def test_related_work_baselines(benchmark, bench_db, baseline_cls):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query2("all", lo, hi, _q23_availqty(bench_db), QUANTITY_EQ)
    prepared = repro.connect(bench_db).prepare(sql)
    query = prepared.query
    impl = baseline_cls()
    result = benchmark.pedantic(
        lambda: impl.execute(query, bench_db), rounds=3, iterations=1
    )
    oracle = prepared.execute(strategy="nested-iteration")
    assert result == oracle


def test_ablation_table(benchmark, bench_db):
    exp = benchmark.pedantic(
        lambda: ablation_optimizations(bench_db), rounds=1, iterations=1
    )
    print()
    print(exp.format_table("seconds"))
    print(exp.format_table("cost"))
    # all variants compute the same result cardinality
    for point in exp.points:
        sizes = {m.result_rows for m in point.measurements.values()}
        assert len(sizes) == 1


def test_single_pass_sorts_less_than_per_level_nesting(benchmark, bench_db):
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query2("all", lo, hi, _q23_availqty(bench_db), QUANTITY_EQ)
    query = repro.compile_sql(sql, bench_db)

    def measure():
        with collect() as m_opt:
            make_strategy("nested-relational-optimized").execute(query, bench_db)
        with collect() as m_orig:
            make_strategy("nested-relational-sorted").execute(query, bench_db)
        return m_opt.get("rows_sorted"), m_orig.get("rows_sorted")

    opt_sorted, orig_sorted = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert opt_sorted < orig_sorted


def test_bottom_up_joins_only_qualified_tuples(benchmark, bench_db):
    """Bottom-up evaluation joins upward only tuples that survived the
    deeper linking predicates, so its hash joins see no more build rows
    than the top-down pipeline's, and its overall cost stays competitive.
    (Its nest operators run over *reduced child* relations via push-down,
    which can be larger than the top-down IR — the savings show up in the
    join stage, not the nest counters.)"""
    lo, hi = _q23_sizes(bench_db, Q23_OUTER_FRACTIONS)[-1]
    sql = query2("all", lo, hi, _q23_availqty(bench_db), QUANTITY_EQ)
    query = repro.compile_sql(sql, bench_db)

    def measure():
        with collect() as m_bu:
            make_strategy("nested-relational-bottomup").execute(query, bench_db)
        with collect() as m_td:
            make_strategy("nested-relational").execute(query, bench_db)
        return m_bu, m_td

    m_bu, m_td = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert m_bu.get("hash_build_rows") <= m_td.get("hash_build_rows")
    assert m_bu.weighted_cost() <= 1.5 * m_td.weighted_cost()
