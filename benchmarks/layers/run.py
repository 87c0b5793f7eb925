#!/usr/bin/env python3
"""benchmarks/layers: one benchmark for the whole engine.

Two ways in, one code path:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload (what the driver calls).  ``--trace 0``
    sets up three times, runs the timed closed loop for S seconds with
    tracing off, checks the answers and reports the end-to-end metrics;
    ``--trace 1`` sets up once and reports the per-layer metrics from a
    separate traced pass.  The last stdout line is one JSON object with
    the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``run.py --seed 2005 [--repeats N] [--quick]``
    The whole suite: every workload, each run above in a fresh process
    (so peak RSS and set-up time belong to one workload), every metric
    printed by name with its unit, one result JSON written under
    ``results/``.

Either way the exit status is non-zero when an operation failed or
answered wrong.
"""

from __future__ import annotations

import os
import sys
import time

T_PROCESS = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
WORK = os.path.join(HERE, ".work")

#: generator hygiene: the engine's thread count, hash order and BLAS pool
#: are pinned before the interpreter that measures anything starts
PINNED_ENV = {"REPRO_THREADS": "1", "PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1"}


def pin_environment():
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable] + sys.argv)


if __name__ == "__main__":
    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"benchmarks/layers needs the engine under {SRC}; not found")
    sys.path[:0] = [SRC, HERE]

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from statistics import geometric_mean, median  # noqa: E402


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def machine_block():
    import numpy

    nproc = os.cpu_count() or 1
    loadavg = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_1m": loadavg,
        # a busy box widens every spread; compare.py shows the flag
        "noisy": loadavg > nproc,
        "env": PINNED_ENV,
    }


def percentile(sorted_values, fraction):
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


def end_to_end(window, import_s, setups, calibrated):
    """The end-to-end metrics of one timed window: every duration divided
    by its speed factor (the declared values, see calibrate.py), or as
    the clock read it (reported beside them)."""
    def scale(factor):
        return factor if calibrated else 1.0

    by_query = {}
    for qid, ms, factor in window.ops:
        by_query.setdefault(qid, []).append(ms / scale(factor))
    latencies = sorted(ms for values in by_query.values() for ms in values)
    ops = len(latencies)
    wall_s = sum(wall / scale(factor) for wall, _cpu, factor in window.rounds)
    cpu_s = sum(cpu / scale(factor) for _wall, cpu, factor in window.rounds)
    return {
        # process start -> first timed op: interpreter + imports once (at
        # the first set-up's speed) plus the median of the repeated set-ups
        "setup_s": import_s / scale(setups[0][1]) + median(
            raw / scale(factor) for raw, factor in setups),
        "latency_ms_p50": median(latencies),
        "latency_ms_p90": percentile(latencies, 0.9),
        "latency_ms_geomean": geometric_mean(
            median(values) for values in by_query.values()),
        "throughput_qps": ops / wall_s,
        "cpu_ms_per_op": cpu_s * 1000.0 / ops,
        "peak_rss_mb": window.peak_rss_mb,
    }


SETUP_REPEATS = 3


def run_one(args, spec):
    """One run of one workload in this process."""
    import layers
    import workloads

    machine = machine_block()
    import_s = time.perf_counter() - T_PROCESS
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.quick, workdir)
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    report = {
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "seconds": args.seconds, "quick": args.quick, "machine": machine,
    }
    try:
        if args.trace:
            workload.timed_setup()
            probes, rounds = layers.SpanLog(), layers.SpanLog()
            measured = workload.layers(args.seconds, probes, rounds)
            speeds = workload.speeds
            declared = [m["name"] for m in spec["per_layer"]]
            undeclared = sorted(set(measured) - set(declared))
            if undeclared:
                sys.exit(f"metrics not declared in BENCHMARK.json: {undeclared}")
            # a layer the workload never enters reads 0
            values = {name: measured.get(name, 0.0) for name in declared}
            attempted, failed = len(rounds.records) or 1, 0
            report["accounted_ratio"] = workload.accounted_ratio
            report["spans"] = {
                "probes": len(probes.records), "rounds": len(rounds.records)}
            with open(os.path.join(WORK, f"spans-{args.workload}.json"), "w") as handle:
                json.dump({"probes": probes.records, "rounds": rounds.records},
                          handle)
        else:
            setups = []
            for index in range(1 if args.quick else SETUP_REPEATS):
                if index:
                    workload.teardown()
                setups.append(workload.timed_setup())
            window = workload.window(args.seconds)
            wrong = workload.check(window)
            attempted = len(window.ops) + window.errors
            failed = window.errors + wrong
            values = end_to_end(window, import_s, setups, calibrated=True)
            report["raw"] = end_to_end(window, import_s, setups, calibrated=False)
            speeds = [factor for _wall, _cpu, factor in window.rounds]
            report["setups_s"] = [raw for raw, _factor in setups]
            report["samples"] = len(window.ops)
            report["samples_beyond_p90"] = len(window.ops) - int(
                0.9 * len(window.ops))
    finally:
        workload.teardown()
    report["speed_factor"] = median(speeds)
    if not failed:
        # a run that raised or answered wrong keeps its store, spill files
        # and serve.log for the post-mortem
        shutil.rmtree(workdir)
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
    }
    failed_share = failed / attempted
    for name, entry in metrics.items():
        raw = "" if args.trace else f"   (raw {report['raw'][name]:.4f})"
        print(f"{args.workload:16s} {name:40s} {entry['value']:14.4f} "
              f"{entry['unit']}{raw}")
    print(f"{args.workload:16s} {'failed_share':40s} {failed_share:14.4f} ratio"
          f"   ({failed} of {attempted} ops)")
    if not args.trace:
        print(f"{args.workload:16s} samples={report['samples']} "
              f"(beyond p90: {report['samples_beyond_p90']}); durations are "
              f"divided by the round's speed factor, median "
              f"{report['speed_factor']:.3f}")
    else:
        print(f"{args.workload:16s} layer self times account for "
              f"{report['accounted_ratio']:.3f} of the traced round; durations "
              f"are divided by the round's speed factor, median "
              f"{report['speed_factor']:.3f}")
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    if args.report:
        with open(args.report, "w") as handle:
            json.dump({**report, **result, "failed_share": failed_share}, handle)
    print(json.dumps(result))
    return 1 if failed else 0


def run_suite(args, spec):
    """Every workload, each run in a fresh process; one result JSON."""
    os.makedirs(WORK, exist_ok=True)
    started = time.time()
    result = {
        "benchmark": "layers",
        "schema_version": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "machine": None,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        runs, traced = [], None
        for trace, index in [(0, i) for i in range(args.repeats)] + [(1, 0)]:
            report_path = os.path.join(WORK, f"report-{name}-{trace}-{index}.json")
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--report", report_path,
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stdout.flush()
            if done.returncode != 0:  # it raised, or an answer was wrong
                sys.exit(f"FAIL: {name} (trace {trace}) exited {done.returncode}")
            with open(report_path) as handle:
                report = json.load(handle)
            os.remove(report_path)
            machine = report.pop("machine")
            if result["machine"] is None:
                result["machine"] = machine
            result["machine"]["noisy"] |= machine["noisy"]
            if trace:
                traced = report
            else:
                runs.append(report)
        result["workloads"][name] = {"why": entry["why"], "runs": runs, "traced": traced}
    result["total_seconds"] = time.time() - started
    out = args.out or os.path.join(
        HERE, "results", "BENCH_layers_quick.json" if args.quick else "BENCH_layers.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out} in {result['total_seconds']:.0f} s"
          + (" (noisy: loadavg > nproc)" if result["machine"]["noisy"] else ""))
    return 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="SF 0.001, one set-up: a self-check, not a measurement")
    parser.add_argument("--repeats", type=int, default=1,
                        help="suite mode: timed runs per workload")
    parser.add_argument("--out", help="suite mode: result JSON path")
    parser.add_argument("--report", help="driver mode: also write the full report here")
    args = parser.parse_args(argv)
    if args.quick and args.seconds == spec["run_seconds"]:
        args.seconds = 1.0
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
