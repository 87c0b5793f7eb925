"""Benchmark-side tracing: spans around public calls, and their roll-up
into per-layer numbers.

Nothing here runs inside the timed window.  The traced pass wraps each
call into a layer's *public* function in a :class:`SpanLog` span and
grafts the span tree that ``PreparedQuery.trace()`` returns underneath
it (both use ``time.perf_counter``, so the two trees share a clock).  A
layer's self time is its spans' duration minus the part their child
spans cover; every engine span is assigned to exactly one layer, so the
self times of one traced round add up to that round's wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from statistics import median

#: layer a span belongs to when neither it nor an ancestor matches a rule
DRIVER = "core.compute"

MS = 1000.0


def classify(span, inherited):
    """(layer, own) for one engine span.

    *own* is True when the span's own name/kind decided the layer, False
    when it inherits its parent's (a ``RelationSource`` under a join, a
    ``vec-filter`` under ``reduce[T_i]``, a ``morsel[i]`` under a
    ``par-*`` operator).  Row counters are only summed over *own* spans.
    """
    name, kind = span.name, span.kind
    if kind == "planner":
        return ("core.planner", name == "planner")
    if kind == "spill":
        return ("engine.spill", True)
    if kind == "phase" and name.startswith("reduce["):
        return ("core.reduce", True)
    if inherited == "core.reduce":
        return (inherited, False)
    if name.startswith(("vec-", "par-")):
        if "join" in name:
            return ("engine.vector.join", True)
        if "link" in name or "nest" in name:
            return ("engine.vector.nestlink", True)
        return (inherited, False)
    if kind == "operator" or kind == "phase":
        if "Join" in name:
            return ("engine.operators.join", True)
        if name == "nest":
            return ("engine.operators.nest", True)
        if "link" in name or "selection" in name:
            return ("engine.operators.link", True)
    return (inherited, False)


class SpanLog:
    """In-memory span records: id, name, layer, parent, op, start, end.

    ``op`` is the identifier every span of one benchmark operation
    shares.  Records are plain dicts, so run.py writes them out with one
    ``json.dump`` when the run ends.
    """

    def __init__(self):
        self.records = []
        self._stack = []
        self._ops = 0

    def add(self, name, layer, start=0.0, end=0.0, own=True, counters=None,
            kind="bench", parent=None):
        """Append one record under *parent*, or else under the currently
        open span.  A record with no parent starts a new operation."""
        if parent is not None:
            parent = parent["id"]
        elif self._stack:
            parent = self._stack[-1]
        if parent is None:
            self._ops += 1
            op = self._ops
        else:
            op = self.records[parent]["op"]
        record = {
            "id": len(self.records),
            "name": name,
            "kind": kind,
            "layer": layer,
            "own": own,
            "parent": parent,
            "op": op,
            "start": start,
            "end": end,
            "counters": counters or {},
        }
        self.records.append(record)
        return record

    @contextmanager
    def span(self, name, layer):
        """Time one call into a layer's public function."""
        record = self.add(name, layer)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def graft(self, trace):
        """Attach an engine :class:`~repro.engine.trace.Trace` under the
        currently open span."""
        for root in trace.roots:
            self._graft(root, DRIVER)

    def _graft(self, span, inherited):
        layer, own = classify(span, inherited)
        end = span.t_end if span.t_end is not None else span.t_start
        record = self.add(
            span.name, layer, span.t_start, end, own, dict(span.counters),
            kind=span.kind,
        )
        self._stack.append(record["id"])
        for child in span.children:
            self._graft(child, layer)
        self._stack.pop()

    # -------------------------------------------------------------- #
    # roll-ups
    # -------------------------------------------------------------- #

    def self_seconds(self):
        """Per-record self time: duration minus the union of the child
        intervals (morsel children of one operator may overlap)."""
        children = {}
        for record in self.records:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        out = []
        for record in self.records:
            lo, hi = record["start"], record["end"]
            covered, edge = 0.0, lo
            for child in sorted(
                children.get(record["id"], ()), key=lambda r: r["start"]
            ):
                start, end = max(child["start"], edge), min(child["end"], hi)
                if end > start:
                    covered += end - start
                    edge = end
            out.append(max(0.0, (hi - lo) - covered))
        return out

    def layer_self_ms(self):
        """Total self time per layer, in ms."""
        totals = {}
        for record, own in zip(self.records, self.self_seconds()):
            totals[record["layer"]] = totals.get(record["layer"], 0.0) + own * MS
        return totals

    def median_ms(self, name):
        """Median duration of the spans called *name*, in ms."""
        return median(
            (r["end"] - r["start"]) * MS for r in self.records if r["name"] == name
        )

    def own_records(self, layer_prefix):
        return [
            r for r in self.records
            if r["own"] and r["layer"].startswith(layer_prefix)
        ]

    def counter_sum(self, layer_prefix, counter):
        return sum(
            r["counters"].get(counter, 0) for r in self.own_records(layer_prefix)
        )


def engine_layer_metrics(log, rounds):
    """The per-layer metrics that come from grafted engine span trees,
    averaged per traced round."""
    per = 1.0 / max(1, rounds)
    self_ms = log.layer_self_ms()
    spills = log.own_records("engine.spill")
    return {
        "core.reduce.ms": self_ms.get("core.reduce", 0.0) * per,
        "core.reduce.rows_out": log.counter_sum("core.reduce", "rows_out") * per,
        "core.compute.driver_self_ms": self_ms.get(DRIVER, 0.0) * per,
        "core.planner.span_ms": self_ms.get("core.planner", 0.0) * per,
        "engine.vector.join_ms": self_ms.get("engine.vector.join", 0.0) * per,
        "engine.vector.nestlink_ms": self_ms.get("engine.vector.nestlink", 0.0) * per,
        "engine.vector.rows_in": log.counter_sum("engine.vector", "rows_in") * per,
        "engine.vector.rows_out": log.counter_sum("engine.vector", "rows_out") * per,
        "engine.operators.join_ms": self_ms.get("engine.operators.join", 0.0) * per,
        "engine.operators.nest_ms": self_ms.get("engine.operators.nest", 0.0) * per,
        "engine.operators.link_ms": self_ms.get("engine.operators.link", 0.0) * per,
        "engine.operators.rows_out": log.counter_sum("engine.operators", "rows_out") * per,
        "engine.spill.spans": len(spills) * per,
        "engine.spill.bytes_spilled_mb": log.counter_sum("engine.spill", "bytes_spilled") * per / 1e6,
        "engine.spill.partitions": log.counter_sum("engine.spill", "partitions") * per,
        "engine.spill.max_depth": max(
            (r["counters"].get("depth", 0) for r in spills), default=0
        ),
        "engine.spill.ms": self_ms.get("engine.spill", 0.0) * per,
    }


#: engine_layer_metrics keys whose values are self times of one round;
#: with the benchmark's own ``session`` spans they must add up to the
#: traced round's wall time
SELF_TIME_METRICS = (
    "core.reduce.ms",
    "core.compute.driver_self_ms",
    "core.planner.span_ms",
    "engine.vector.join_ms",
    "engine.vector.nestlink_ms",
    "engine.operators.join_ms",
    "engine.operators.nest_ms",
    "engine.operators.link_ms",
    "engine.spill.ms",
)
