"""Machine-speed calibration: what makes runs on a shared box comparable.

The sandbox is a 2-vCPU VM on a shared host.  The same query takes 25 %
to 100 % longer, wall *and* CPU time, whenever a neighbour is busy, in
bursts that last from under a second to minutes; raw medians of identical
runs differ by 20-45 %, several times any useful regression bound, and
the driver refuses a benchmark whose end-to-end metrics spread more than
their bound.  So every round of the *timed window* is bracketed by a
fixed calibration kernel (interpreter bytecode plus numpy sort/unique
over half a megabyte, the mix the engine itself runs), and the declared
end-to-end times are the round's durations divided by its *speed factor*:
the mean of the two bracketing kernel times over the kernel's time on the
quiet box, ``K_REF_MS``.  On a quiet box the factor is 1.

The normalizer is never the only number: each timed run reports the raw
value of every end-to-end metric beside the declared one and compare.py
prints the raw ratio beside the declared ratio, so a verdict that rests
on the normalizer shows.  The traced pass divides its rounds' times the
same way (its ratios compare rounds measured seconds apart, and read
0.76 or 1.38 for a true 1.0 when the host changes speed in between) and
reports the median factor it saw.

Measured on this box under load (20 windows of 10 s, fig_warm_vector's
queries): raw geomean 40-62 ms, quartile spread 25 %; normalised 33-37 ms,
spread 5 %.

The row backend gets its own kernel.  A busy neighbour slows
interpreter-bound code more than numpy loops: with 300 row-engine rounds
interleaved with both kernels while the host went from x1.1 to x1.9, the
round normalised by the kernel above still rose with the factor (log-log
slope +0.39, medians of 30-round chunks 1.30x apart; ten fig_warm_row
runs read p50 57 ms against 45 ms on the quiet box), and normalised by
the interpreter kernel below it did not (slope -0.07..+0.01, 1.07x
apart).  The vectorized engine is the other way round (slope 0.00 with
the kernel above, -0.2 with the interpreter kernel), so fig_warm_row
alone uses ``interp_speed``.

A spilling ``stored_spill`` op spends two thirds of its time creating,
mapping and unlinking 136 small temp files, and on this box the cost of
exactly that moves between two phases (x1 and x1.6-2, each lasting
seconds) that the CPU kernel does not see.  So that workload also samples
a file kernel (120 small ``.npy`` files written, mapped and unlinked in
the spill directory), and a spilling op's factor is one third CPU speed,
two thirds file speed; an op that fits in the budget keeps the CPU factor.
Which ops spill and the two-thirds weight are frozen in workloads.py and
checked on every run: the timed run refuses to report when another set
of queries spills, the traced run when the share of a spilling op's time
under ``spill`` spans leaves ``SPILL_IO_SHARE_RANGE``.  Over fifteen 10 s
windows the four spilling queries' raw medians spread 41-45 %, normalised
1.3-2.3 %.

The kernels run outside the clocks and with no operation in flight.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections import namedtuple

import numpy as np

#: the kernel's time on this sandbox when the host is quiet (its minimum
#: over 600 samples is 14.6 ms).  Frozen: it only fixes the scale.
K_REF_MS = 15.0

_KEYS = (np.arange(60_000, dtype=np.int64) * 2654435761) % (1 << 31)


def kernel_ms():
    """Run the calibration kernel once; its wall time in ms."""
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    np.unique(_KEYS)
    _KEYS.argsort(kind="stable")
    return (time.perf_counter() - start) * 1000.0


#: the interpreter kernel's time on the quiet box (its minimum over 300
#: samples is 9.1 ms).  Frozen like K_REF_MS.
INTERP_REF_MS = 9.2

_Row = namedtuple("_Row", "a b c d")
_PATTERN = re.compile(r"(\d+)-(\w+)")


def _scan(n):
    for i in range(n):
        yield (i % 101, i % 7, i, float(i))


def _select(rows, keep):
    for row in rows:
        if keep(row):
            yield row


def _hash_join(left, right):
    index = {}
    for row in right:
        index.setdefault(row[0], []).append(row)
    for row in left:
        for match in index.get(row[0], ()):
            yield row + match


def interp_kernel_ms():
    """The interpreter kernel: no numpy, many bytecode and library paths
    (named tuples, json, regex, keyed sorts, a generator-pipeline hash
    join), which is what a row-at-a-time engine runs; wall time in ms."""
    start = time.perf_counter()
    rows = [_Row(i % 17, str(i), i * 0.5, None if i % 5 == 0 else i)
            for i in range(1500)]
    json.loads(json.dumps([row._asdict() for row in rows[:300]]))
    kept = [row for row in rows
            if row.d is not None and isinstance(row.c, float) and row.c > 3]
    kept.sort(key=lambda row: (row.a, row.b))
    sum(len(m.group(2)) for m in map(_PATTERN.match,
                                     (f"{row.a}-{row.b}" for row in kept)) if m)
    groups = {}
    for row in kept:
        groups.setdefault(row.a, []).append(row)
    [tuple(x) + tuple(y) for group in groups.values()
     for x in group[:6] for y in group[:6] if x.c <= y.c]
    left = (row[:1] + row[2:] for row in _select(_scan(6000), lambda r: r[1] != 3))
    right = _select(_scan(900), lambda r: r[2] % 2 == 0)
    sum(1 for _row in _select(_hash_join(left, right), lambda r: r[1] > r[5]))
    return (time.perf_counter() - start) * 1000.0


#: the file kernel's time on this box in the fast file-system phase
IO_REF_MS = 30.0

_BLOCK = np.arange(2_000, dtype=np.int64)


def io_kernel_ms(directory):
    """Write, map and unlink 120 small column files under *directory*
    (what one spilling operator does); wall time in ms."""
    start = time.perf_counter()
    scratch = os.path.join(directory, "calibrate")
    os.mkdir(scratch)
    paths = [os.path.join(scratch, f"c{index}.npy") for index in range(120)]
    for path in paths:
        np.save(path, _BLOCK)
    for path in paths:
        np.load(path, mmap_mode="r")
    for path in paths:
        os.unlink(path)
    os.rmdir(scratch)
    return (time.perf_counter() - start) * 1000.0


def cpu_speed():
    """Speed factor of a CPU-bound workload, right now (1 = quiet box)."""
    return kernel_ms() / K_REF_MS


def interp_speed():
    """Speed factor of interpreter-bound work, right now."""
    return interp_kernel_ms() / INTERP_REF_MS


def io_speed(directory):
    """Speed factor of temp-file traffic in *directory*, right now."""
    return io_kernel_ms(directory) / IO_REF_MS
