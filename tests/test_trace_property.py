"""Property test: tracing is observation-only.

For random (query, database) pairs from the fuzzer's generator and a
random strategy, executing with tracing enabled must produce exactly
the same result rows AND exactly the same ``Metrics`` counters as
executing with tracing disabled — the tracer may never perturb what it
observes.  On top of that, every trace drawn this way must satisfy the
span-tree invariants and reconcile with the Metrics totals.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engine.metrics import collect
from repro.engine.trace import (
    reconcile_with_metrics,
    trace_invariant_violations,
    tracing,
)
from repro.errors import ReproError
from repro.fuzz import FuzzConfig, generate_case

#: strategies that accept every generated query (guarded ones would
#: force per-case applicability plumbing without adding trace coverage)
STRATEGY_NAMES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-iteration",
    "system-a-native",
    "auto",
]

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


@given(case=cases, strategy=st.sampled_from(STRATEGY_NAMES))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tracing_on_off_parity(case, strategy):
    db = case.db_spec.build()
    prepared = repro.connect(db, plan_cache=False).prepare(case.sql)

    try:
        with collect() as plain_metrics:
            plain = prepared.execute(strategy=strategy)
    except ReproError:
        # a strategy rejecting the query must reject it identically
        # under tracing; nothing further to compare
        with collect():
            with tracing():
                try:
                    prepared.execute(strategy=strategy)
                except ReproError:
                    return
        raise AssertionError(
            f"{strategy} raised without tracing but succeeded with it"
        )

    with collect() as traced_metrics:
        with tracing() as trace:
            traced = prepared.execute(strategy=strategy)

    assert traced.sorted() == plain.sorted()
    assert traced_metrics.snapshot() == plain_metrics.snapshot()
    assert trace_invariant_violations(
        trace, result_cardinality=len(traced)
    ) == []
    assert reconcile_with_metrics(trace, traced_metrics.snapshot()) == []
