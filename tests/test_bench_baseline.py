"""The committed perf-trajectory seed artifact.

``benchmarks/baselines/BENCH_vector_baseline.json`` is the frozen
output of ``scripts/bench_vector.py --name vector_baseline`` — future
sessions diff their numbers against it.  These tests pin its shape:
it must exist, carry both strategies over a non-empty Figure 4 series,
and every embedded trace must validate against the span-tree checks
(the same ones ``scripts/validate_trace.py`` applies in CI).
"""

from __future__ import annotations

import json
import os

BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "baselines",
    "BENCH_vector_baseline.json",
)


def _load():
    with open(BASELINE) as fh:
        return json.load(fh)


def test_baseline_is_committed():
    assert os.path.exists(BASELINE), "perf baseline artifact missing"


def test_baseline_shape():
    doc = _load()
    assert doc["scale_factor"] > 0
    experiments = doc["experiments"]
    assert experiments, "baseline must hold at least one experiment"
    for experiment in experiments:
        points = experiment["points"]
        assert points, "experiment with no series points"
        for point in points:
            measurements = point["measurements"]
            assert "nested-relational" in measurements
            assert "nested-relational-vectorized" in measurements
            for m in measurements.values():
                assert m["seconds"] > 0
                assert m["result_rows"] >= 0

    # both strategies agree on every point (it is the same query)
    for experiment in experiments:
        for point in experiment["points"]:
            rows = {
                m["result_rows"]
                for m in point["measurements"].values()
            }
            assert len(rows) == 1, "strategies disagreed on result size"


def test_baseline_traces_validate():
    from repro.engine.trace import validate_trace_dict

    doc = _load()
    n = 0
    for experiment in doc["experiments"]:
        for point in experiment["points"]:
            for m in point["measurements"].values():
                trace = m.get("trace")
                assert trace is not None, "measurement without a trace"
                assert validate_trace_dict(trace) == []
                n += 1
    assert n > 0
