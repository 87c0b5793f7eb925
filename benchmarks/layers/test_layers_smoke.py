"""Self-check of benchmarks/layers (about 40 s; not in tier-1 testpaths).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/layers/test_layers_smoke.py -q

One ``run.py --quick`` suite run (SF 0.001, one set-up, 1 s windows), then:
every metric BENCHMARK.json declares is emitted by every workload with
the declared unit, nothing undeclared appears, names are well-formed, the
result validates against result.schema.json, and compare.py accepts a
result against itself.  The committed results/BENCH_layers.json is held
to the same checks, so what the README quotes was asserted, not read off.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load(path):
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def spec():
    return load(os.path.join(REPO, "BENCHMARK.json"))


@pytest.fixture(scope="module")
def result_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("layers") / "BENCH_layers_quick.json"
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "7",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    return str(out)


@pytest.fixture(scope="module", params=["quick", "committed"])
def result(request):
    if request.param == "quick":
        return load(request.getfixturevalue("result_path"))
    return load(os.path.join(HERE, "results", "BENCH_layers.json"))


def test_benchmark_json_shape(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/layers"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_interactions_cover_every_layer_metric(spec):
    interactions = load(os.path.join(HERE, "interactions.json"))["metrics"]
    assert list(interactions) == [m["name"] for m in spec["per_layer"]]
    workloads = {w["name"] for w in spec["workloads"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in interactions.values():
        assert set(entry["measured_on"]) <= workloads
        assert set(entry["flat_on"]) <= workloads
        for move in entry["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in workloads


def test_every_declared_metric_is_emitted(spec, result):
    assert set(result["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in result["workloads"].items():
        for declared, runs in (
            (spec["end_to_end"], entry["runs"]),
            (spec["per_layer"], [entry["traced"]]),
        ):
            units = {m["name"]: m["unit"] for m in declared}
            for run in runs:
                emitted = {k: v["unit"] for k, v in run["metrics"].items()}
                assert emitted == units, (name, set(emitted) ^ set(units))
                assert all(NAME.match(metric) for metric in emitted)
                assert run["correct"] and run["failed"] == 0, name
        for metric in spec["end_to_end"]:  # never 0: a bound is a share of it
            assert entry["runs"][0]["metrics"][metric["name"]]["value"] > 0


def test_workloads_stress_different_layers(result):
    traced = {
        name: {k: v["value"] for k, v in entry["traced"]["metrics"].items()}
        for name, entry in result["workloads"].items()
    }
    for name, metrics in traced.items():
        assert (metrics["engine.spill.spans"] > 0) == (name == "stored_spill")
    assert traced["fig_warm_vector"]["core.plancache.reduce_hit_ratio"] >= 0.95
    assert traced["adhoc_cold"]["core.plancache.reduce_hit_ratio"] <= 0.1
    assert traced["fig_warm_row"]["engine.vector.join_ms"] == 0
    assert traced["fig_warm_row"]["engine.vector.nestlink_ms"] == 0
    assert traced["fig_warm_vector"]["engine.operators.join_ms"] == 0
    assert traced["fig_warm_vector"]["engine.operators.link_ms"] == 0
    assert traced["serve_closed"]["serve.exec_ms_p50"] > 0
    # nothing unaccounted: the reported self times add up to the round
    assert result["workloads"]["fig_warm_vector"]["traced"]["accounted_ratio"] >= 0.9


def test_result_validates_against_schema(result):
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(result, load(os.path.join(HERE, "result.schema.json")))


def test_compare_accepts_a_result_against_itself(result_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), result_path, result_path],
        stdout=subprocess.PIPE, text=True,
    )
    assert done.returncode == 0, done.stdout
    assert "regressed" not in done.stdout and "unresolved" not in done.stdout


def test_refuses_to_run_without_the_engine(tmp_path):
    """In a directory holding only BENCHMARK.json and benchmarks/layers
    the command exits non-zero without printing a result."""
    import shutil

    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "layers",
        ignore=shutil.ignore_patterns(".work", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/layers/run.py", "--workload", "fig_warm_vector",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
