#!/usr/bin/env python3
"""Compare two benchmarks/layers result files: the single perf gate.

Usage::

    python benchmarks/layers/compare.py A.json B.json

A is the base (parent commit), B the candidate.  One row per workload x
end-to-end metric: both medians over the files' runs, the ratio B/A
*with its base*, the same ratio of the raw (uncalibrated) medians, the
bound from BENCHMARK.json and a verdict on the declared values:

``ok``          B's median is not worse than A's by more than the bound
``regressed``   it is
``unresolved``  the run-to-run quartile spread of A or B exceeds the
                bound, so the runs cannot tell (not the same as "ok")

``failed_share`` (failed ops / attempted ops, summed over the runs) has
no tolerance: any increase is a regression.  Exit status is 1 on any
``regressed`` row or a higher ``failed_share``, else 0.  Spread needs at
least two runs per side (``run.py --repeats N``); with one it reads n/a
and cannot make a row unresolved.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))


def spread(values):
    """Distance between the first and third quartile as a share of the
    median; None when there are too few runs to have quartiles."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worsening(base, new, better):
    """How much worse *new* is than *base*, as a share of *base*."""
    change = (new - base) / base
    return change if better == "lower" else -change


def failed_share(runs):
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted


def compare(base, new, spec):
    """Rows of (workload, metric, base median, new median, ratio, raw
    ratio, bound, base spread, new spread, verdict)."""
    rows = []
    for entry in spec["workloads"]:
        name = entry["name"]
        runs_a = base["workloads"][name]["runs"]
        runs_b = new["workloads"][name]["runs"]
        for metric in spec["end_to_end"]:
            a = [run["metrics"][metric["name"]]["value"] for run in runs_a]
            b = [run["metrics"][metric["name"]]["value"] for run in runs_b]
            med_a, med_b = median(a), median(b)
            spreads = (spread(a), spread(b))
            if any(s is not None and s > metric["bound"] for s in spreads):
                verdict = "unresolved"
            elif worsening(med_a, med_b, metric["better"]) > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            # a verdict the raw ratio contradicts rests on the normalizer
            raw = (median(run["raw"][metric["name"]] for run in runs_b)
                   / median(run["raw"][metric["name"]] for run in runs_a))
            rows.append((name, metric["name"], med_a, med_b, med_b / med_a, raw,
                         metric["bound"], *spreads, verdict))
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        rows.append((name, "failed_share", share_a, share_b, None, None, 0.0,
                     None, None, "regressed" if share_b > share_a else "ok"))
    return rows


def fmt_spread(value):
    return "   n/a" if value is None else f"{value:6.3f}"


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for label, result in (("A", base), ("B", new)):
        if result["machine"]["noisy"]:
            print(f"note: {label} was measured with loadavg > nproc (noisy)")
    print(f"{'workload':16s} {'metric':20s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>16s} {'raw B/A':>7s} {'bound':>6s} {'iqrA':>6s} {'iqrB':>6s}"
          f"  verdict")
    bad = 0
    for (workload, metric, med_a, med_b, ratio, raw, bound, spread_a, spread_b,
         verdict) in compare(base, new, spec):
        ratio_text = "" if ratio is None else f"{ratio:.3f}x of {med_a:.4g}"
        raw_text = "" if raw is None else f"{raw:.3f}x"
        print(f"{workload:16s} {metric:20s} {med_a:12.4f} {med_b:12.4f} "
              f"{ratio_text:>16s} {raw_text:>7s} {bound:6.2f} "
              f"{fmt_spread(spread_a)} {fmt_spread(spread_b)}  {verdict}")
        bad += verdict == "regressed"
    if bad:
        print(f"FAIL: {bad} regressed row(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
