"""Property test: thread count is unobservable.

For random (query, database) pairs from the fuzzer's generators, the
morsel-parallel strategy at 1 worker and at N workers must produce
exactly the same relation and the same root-span output cardinality,
and each trace must independently satisfy the span-tree invariants and
reconcile with its own Metrics totals.  ``min_partition_rows=1`` forces
real partition splits even on the fuzzer's tiny relations, so this
exercises the partitioned kernels, not the sequential fallback.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.compute import NestedRelationalStrategy
from repro.engine.metrics import collect
from repro.engine.trace import (
    reconcile_with_metrics,
    trace_invariant_violations,
)
from repro.engine.vector.backend import VectorBackend
from repro.fuzz import FuzzConfig, generate_case

cases = st.builds(
    generate_case,
    config=st.builds(
        FuzzConfig,
        iterations=st.just(1),
        seed=st.integers(min_value=0, max_value=2**16),
        max_depth=st.integers(min_value=1, max_value=3),
        null_rate=st.sampled_from([0.0, 0.25, 0.5]),
        max_rows=st.integers(min_value=1, max_value=6),
    ),
    iteration=st.integers(min_value=0, max_value=3),
)


def _parallel(threads: int) -> NestedRelationalStrategy:
    return NestedRelationalStrategy(
        backend=VectorBackend(threads=threads, min_partition_rows=1)
    )


@given(case=cases, threads=st.sampled_from([2, 3, 4]))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_one_thread_and_n_threads_agree(case, threads):
    db = case.db_spec.build()
    prepared = repro.connect(db, plan_cache=False).prepare(case.sql)

    with collect() as one_metrics:
        one_result, one_trace = prepared.trace(strategy=_parallel(1))
    with collect() as many_metrics:
        many_result, many_trace = prepared.trace(strategy=_parallel(threads))

    assert many_result == one_result
    assert many_result.schema.names == one_result.schema.names
    assert (
        many_trace.root.counters["rows_out"]
        == one_trace.root.counters["rows_out"]
    )

    for trace, metrics in (
        (one_trace, one_metrics),
        (many_trace, many_metrics),
    ):
        assert not trace_invariant_violations(trace)
        assert not reconcile_with_metrics(trace, metrics.counters)


@given(case=cases)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_parallel_matches_sequential_vectorized(case):
    db = case.db_spec.build()
    prepared = repro.connect(db, plan_cache=False).prepare(case.sql)
    sequential = prepared.execute(
        strategy="nested-relational-vectorized", backend="vector"
    )
    parallel = prepared.execute(strategy=_parallel(3))
    assert parallel == sequential
