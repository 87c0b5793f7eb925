"""Benchmark harness: run a query across strategies, collect series.

The paper's figures plot elapsed time against the size of each query
block; its text additionally reports the *intermediate result* size (the
fully outer-joined relation the nested relational approach processes) and
the time spent in nest + linking selection alone.  The harness reproduces
all three: each :class:`SeriesPoint` records per-strategy wall time,
deterministic cost counters, result cardinality, and the intermediate
result size.

Every measurement runs the way a user's query does: the SQL is prepared
once on a ``repro.connect(db, plan_cache=False)`` session and each
strategy goes through :meth:`~repro.session.PreparedQuery.execute`
(traces through :meth:`~repro.session.PreparedQuery.trace`).  With the
plan cache off, every repeat reduces from the base tables and resolves
its strategy afresh; a timing covers that resolution and the root
ORDER BY / GROUP BY step too.

Wall times on a pure-Python engine do not match a 2005 C++ DBMS; the
*relations between* the series (who wins, by what factor, how slopes
scale with block size) are the reproduction target.  EXPERIMENTS.md
records both.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from ..engine.catalog import Database
from ..engine.metrics import collect
from ..core.blocks import NestedQuery
from ..core.reduce import reduce_all
from ..errors import InvalidArgumentError
from ..session import PreparedQuery


@dataclass
class StrategyMeasurement:
    """One strategy's run at one series point."""

    strategy: str
    seconds: float
    result_rows: int
    metrics: Dict[str, int]
    #: serialized execution trace (``Trace.to_dict``); only populated
    #: inside a :func:`capturing_traces` scope
    trace: Optional[Dict] = None

    @property
    def cost(self) -> int:
        """Disk-era deterministic cost (see ``Metrics.weighted_cost``)."""
        from ..engine.metrics import IO_WEIGHTS

        return sum(
            value * IO_WEIGHTS.get(name, 1)
            for name, value in self.metrics.items()
        )


@dataclass
class SeriesPoint:
    """One x-position of a figure: block sizes + per-strategy numbers."""

    label: str
    block_sizes: Tuple[int, ...]
    intermediate_rows: int
    measurements: Dict[str, StrategyMeasurement] = field(default_factory=dict)


@dataclass
class Experiment:
    """A full figure/table: an ordered list of series points."""

    experiment_id: str
    title: str
    points: List[SeriesPoint] = field(default_factory=list)

    def strategies(self) -> List[str]:
        names: List[str] = []
        for point in self.points:
            for name in point.measurements:
                if name not in names:
                    names.append(name)
        return names

    def format_table(self, metric: str = "seconds") -> str:
        """Render the figure as an aligned text table.

        *metric* is ``"seconds"``, ``"cost"`` or ``"rows"``.
        """
        strategies = self.strategies()
        header = ["block sizes", "IR rows"] + strategies
        rows: List[List[str]] = []
        for point in self.points:
            row = [point.label, str(point.intermediate_rows)]
            for name in strategies:
                m = point.measurements.get(name)
                if m is None:
                    row.append("-")
                elif metric == "seconds":
                    row.append(f"{m.seconds:.4f}")
                elif metric == "cost":
                    row.append(str(m.cost))
                elif metric == "rows":
                    row.append(str(m.result_rows))
                else:
                    row.append(str(m.metrics.get(metric, 0)))
            rows.append(row)
        widths = [len(h) for h in header]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            f"== {self.experiment_id}: {self.title} ({metric}) ==",
            " | ".join(h.ljust(w) for h, w in zip(header, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-serializable form (the ``BENCH_<figure>.json`` artifact):
        per-point, per-strategy seconds/cost/rows/metrics plus the
        per-operator trace when captured."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "points": [
                {
                    "label": point.label,
                    "block_sizes": list(point.block_sizes),
                    "intermediate_rows": point.intermediate_rows,
                    "measurements": {
                        name: {
                            "seconds": m.seconds,
                            "cost": m.cost,
                            "result_rows": m.result_rows,
                            "metrics": dict(m.metrics),
                            "trace": m.trace,
                        }
                        for name, m in point.measurements.items()
                    },
                }
                for point in self.points
            ],
        }


# When true, measure_strategy attaches a serialized execution trace to
# each measurement via one extra (untimed) traced run.
_capture_traces = False


@contextmanager
def capturing_traces():
    """Attach per-operator traces to measurements taken inside the scope.

    The traced run is separate from the timed runs, so trace capture
    never perturbs the reported wall times.
    """
    global _capture_traces
    previous = _capture_traces
    _capture_traces = True
    try:
        yield
    finally:
        _capture_traces = previous


def write_bench_artifact(
    name: str,
    experiments: Sequence["Experiment"],
    directory: str,
    scale_factor: Optional[float] = None,
) -> str:
    """Write a ``BENCH_<name>.json`` artifact and return its path.

    The payload bundles every experiment of one figure (variants a/b/c
    of Figures 7-9 share one file); measurements carry per-operator
    traces when taken inside a :func:`capturing_traces` scope.
    """
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    payload = {
        "figure": name,
        "scale_factor": scale_factor,
        "experiments": [e.to_dict() for e in experiments],
    }
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def measure_strategy(
    prepared: PreparedQuery, strategy_name: str, repeats: int = 1
) -> StrategyMeasurement:
    """Run one strategy, returning the best-of-*repeats* wall time."""
    best: Optional[float] = None
    metrics_snapshot: Dict[str, int] = {}
    result_rows = 0
    for _ in range(max(1, repeats)):
        with collect() as m:
            start = time.perf_counter()
            result = prepared.execute(strategy=strategy_name)
            elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
            metrics_snapshot = m.snapshot()
            result_rows = len(result)
    assert best is not None
    trace_dict: Optional[Dict] = None
    if _capture_traces:
        _result, trace = prepared.trace(strategy=strategy_name)
        trace_dict = trace.to_dict()
    return StrategyMeasurement(
        strategy=strategy_name,
        seconds=best,
        result_rows=result_rows,
        metrics=metrics_snapshot,
        trace=trace_dict,
    )


def intermediate_result_size(prepared: PreparedQuery) -> int:
    """Rows in the widest relation Algorithm 1 nests: for a linear query
    the fully outer-joined intermediate relation.

    This is the main cost parameter the paper reports ("one of the main
    parameters we use is the size of the intermediate result").  Read off
    a traced execution: every way up starts with a ``nest`` over the
    accumulated join.  A query that never nests (flat, or only
    non-correlated subqueries, which are executed once and never joined)
    has just its reduced outer block.
    """
    _result, trace = prepared.trace(strategy="nested-relational")
    nested = [span.counters["rows_in"] for span in trace.find("nest")]
    if nested:
        return max(nested)
    root = trace.find(f"reduce[T{prepared.query.root.index}]")[0]
    return root.counters["rows_out"]


def block_sizes(query: NestedQuery, db: Database) -> Tuple[int, ...]:
    """Reduced size |T_i| of every block, in DFS order (the paper's
    'size of each query block' x-axis)."""
    reduced = reduce_all(query, db)
    return tuple(len(reduced[b.index].relation) for b in query.root.walk())


@dataclass
class ProcessingProfile:
    """Section 5.2's in-text numbers for one query instance: the size of
    the intermediate result and the time spent in nest + linking
    selection alone, for the original (two passes) and the optimized
    (one fused pass) nested relational approaches."""

    label: str
    intermediate_rows: int
    original_seconds: float
    optimized_seconds: float

    @property
    def ratio(self) -> float:
        """original / optimized — the paper reports roughly 2x (two
        passes versus one over the intermediate result)."""
        if self.optimized_seconds == 0:
            return float("inf")
        return self.original_seconds / self.optimized_seconds


def processing_profile(
    sql: str, db: Database, repeats: int = 3
) -> ProcessingProfile:
    """Isolate the nest + linking-selection stage for a *linear* query.

    Both variants run the whole query under tracing and only the way-up
    spans are summed (reduction and outer joins excluded): exactly the
    quantity the paper reports as "the processing time of nest and
    linking selection".  Original = one sort-based nest plus one linking
    selection per level (two passes per level); optimized = the fused
    single-pass pipeline, whose input is the intermediate result.
    """
    prepared = repro.connect(db, plan_cache=False).prepare(sql)
    query = prepared.query
    if not query.is_linear:
        raise InvalidArgumentError("processing_profile requires a linear query")

    def way_up(strategy: str, *span_names: str) -> Tuple[float, int]:
        """Best-of-*repeats* summed wall time of the named spans, and the
        rows entering the first of them."""
        best: Optional[float] = None
        rows_in = 0
        for _ in range(max(1, repeats)):
            _result, trace = prepared.trace(strategy=strategy)
            spans = [s for s in trace.spans() if s.name in span_names]
            seconds = sum(s.wall_seconds for s in spans)
            if best is None or seconds < best:
                best = seconds
            if spans:
                rows_in = spans[0].counters["rows_in"]
        assert best is not None
        return best, rows_in

    original, _ = way_up(
        "nested-relational-sorted",
        "nest", "linking-selection", "pseudo-selection",
    )
    optimized, intermediate = way_up(
        "nested-relational-optimized", "single-pass-link"
    )
    sizes = block_sizes(query, db)
    return ProcessingProfile(
        label="/".join(str(s) for s in sizes),
        intermediate_rows=intermediate or sizes[0],
        original_seconds=original,
        optimized_seconds=optimized,
    )


def run_point(
    sql: str,
    db: Database,
    strategies: Sequence[str],
    label: Optional[str] = None,
    repeats: int = 1,
) -> SeriesPoint:
    """Measure every strategy on one query instance."""
    prepared = repro.connect(db, plan_cache=False).prepare(sql)
    sizes = block_sizes(prepared.query, db)
    point = SeriesPoint(
        label=label or "/".join(str(s) for s in sizes),
        block_sizes=sizes,
        intermediate_rows=intermediate_result_size(prepared),
    )
    for name in strategies:
        point.measurements[name] = measure_strategy(prepared, name, repeats)
    return point
