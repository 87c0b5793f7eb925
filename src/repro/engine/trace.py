"""Execution tracing: a span tree over the physical operators.

``EXPLAIN ANALYZE`` support.  When a :func:`tracing` context is active,
every physical operator (joins, scans, filters, ``nest``, linking and
pseudo selections, the fused single-pass pipeline, the baselines'
iteration loops) opens a :class:`Span` for the duration of its work and
records

* wall-clock time (inclusive of children),
* input/output row counts (``rows_in`` / ``rows_out``),
* operator-specific extremes (peak group cardinality of a nest,
  hash-table build sizes), and
* the ambient :class:`~repro.engine.metrics.Metrics` delta over its
  window — so null-padded-tuple counts, hash builds/probes, sort sizes
  and predicate evaluations are attributed per operator without any
  extra per-row bookkeeping.

Spans form a tree mirroring the dynamic operator nesting: a span's
children are the operators that ran inside it (a row operator reads
materialized relations, so its span has none).  The tracer is
**observation only** — results and :class:`Metrics` counters are
bit-identical with tracing on or off — and costs a single ``is None``
check per operator call when disabled.

Invariants (checked by :func:`trace_invariant_violations` and the
``tests/core/test_trace_invariants.py`` suite):

* every span is closed, timestamps are ordered, counters non-negative;
* cardinality contracts hold per operator: *preserving* operators
  (pseudo selection, which pads instead of dropping, and the vector
  engine's row-preserving kernels) emit exactly as many rows as they
  consume, *filtering*
  operators at most as many, *expanding* operators (outer joins) at
  least as many;
* an operator's ``rows_in`` equals the summed ``rows_out`` of the child
  operator spans that feed it, when it has any (the row-accounting check
  that catches a mis-counting operator even when row *values* are
  right);
* the root span's ``rows_out`` equals the result cardinality;
* summed per-span metric deltas reconcile with the ambient ``Metrics``
  totals of the execution (:func:`reconcile_with_metrics`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from .context import current, scope
from .metrics import current_metrics

#: the one trace document format: operator / phase / root spans plus the
#: ``governor`` and ``spill`` bookkeeping kinds and the ``aborted`` span
#: attribute
TRACE_FORMAT_VERSION = 4
SUPPORTED_TRACE_VERSIONS = (TRACE_FORMAT_VERSION,)

#: cardinality contracts — see module docstring
CONTRACT_FILTERING = "filtering"  # rows_out <= rows_in
CONTRACT_PRESERVING = "preserving"  # rows_out == rows_in
CONTRACT_EXPANDING = "expanding"  # rows_out >= rows_in

_CONTRACTS = (CONTRACT_FILTERING, CONTRACT_PRESERVING, CONTRACT_EXPANDING)

#: span kind of the wrapper span tagging a governed execution with its
#: limits.  Governor spans are bookkeeping, not operators: the
#: row-accounting and contract checks skip them, but their children (the
#: governed operator tree) are checked as usual.
KIND_GOVERNOR = "governor"

#: span kind of one out-of-core pass: a spilling hash-join build or nest
#: grouping run that diverted to disk partitions
#: (:mod:`repro.engine.spill`).  Spill spans are bookkeeping, not
#: operators — the row-accounting and contract checks skip them (their
#: per-partition children collectively re-describe the wrapped
#: operator's own input) — and they carry the
#: ``bytes_spilled`` / ``partitions`` / ``depth`` counters the bench
#: artifacts and the governor's spill accounting are validated against.
KIND_SPILL = "spill"

#: self-metrics worth surfacing on an EXPLAIN ANALYZE line, in order
RENDER_METRICS = (
    "hash_build_rows",
    "hash_probes",
    "index_probes",
    "index_rows_fetched",
    "rows_sorted",
    "rows_nested",
    "linking_evals",
    "predicate_evals",
    "null_padded_rows",
)


class Span:
    """One operator's (or phase's) traced execution window."""

    __slots__ = (
        "name",
        "kind",
        "attrs",
        "contract",
        "counters",
        "children",
        "t_start",
        "t_end",
        "_m0",
        "metrics_inclusive",
    )

    def __init__(
        self,
        name: str,
        kind: str = "operator",
        attrs: Optional[Dict[str, Any]] = None,
        contract: Optional[str] = None,
    ):
        self.name = name
        self.kind = kind
        self.attrs = attrs or {}
        self.contract = contract
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self.t_start = time.perf_counter()
        self.t_end: Optional[float] = None
        self._m0 = dict(current_metrics().counters)
        #: ambient Metrics delta over [t_start, t_end], children included
        self.metrics_inclusive: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def mark_aborted(self, reason: str = "error") -> None:
        """Tag the span as unwound by an exception.

        An aborted span's counters describe *partial* work (an operator
        may have recorded ``rows_in`` but died before ``rows_out``), so
        the cardinality-contract and row-accounting invariants skip it —
        that is what keeps partial span trees from failed executions
        valid.
        """
        self.attrs["aborted"] = reason

    @property
    def aborted(self) -> bool:
        return "aborted" in self.attrs

    def set(self, name: str, value: int) -> None:
        self.counters[name] = value

    def set_max(self, name: str, value: int) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def _close(self) -> None:
        if self.t_end is not None:
            return
        self.t_end = time.perf_counter()
        now = current_metrics().counters
        m0 = self._m0
        delta = {}
        for key, value in now.items():
            d = value - m0.get(key, 0)
            if d:
                delta[key] = d
        self.metrics_inclusive = delta

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        return self.t_end is not None

    @property
    def wall_seconds(self) -> float:
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return end - self.t_start

    def self_metrics(self) -> Dict[str, int]:
        """Ambient metrics delta attributed to this span alone.

        Inclusive delta minus the children's inclusive deltas.  Because
        every child window is contained in its parent's, summing
        ``self_metrics`` over a whole span tree telescopes back to the
        root's inclusive delta — the reconciliation invariant.
        """
        out = dict(self.metrics_inclusive)
        for child in self.children:
            for key, value in child.metrics_inclusive.items():
                out[key] = out.get(key, 0) - value
        return {k: v for k, v in out.items() if v}

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "attrs": {k: str(v) for k, v in self.attrs.items()},
            "contract": self.contract,
            "wall_seconds": self.wall_seconds,
            "counters": dict(self.counters),
            "metrics": self.self_metrics(),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"Span({self.name!r}, {inner})"


class Tracer:
    """Builds the span tree; installed as the ambient tracer by
    :func:`tracing`."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def open(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        kind: str = "operator",
        contract: Optional[str] = None,
    ) -> Span:
        span = Span(name, kind=kind, attrs=attrs, contract=contract)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def innermost(self) -> Optional[Span]:
        """The most recently opened span still open, or None."""
        return self._stack[-1] if self._stack else None

    def close(self, span: Span) -> None:
        """Close *span*, closing any deeper spans still open.

        Spans normally unwind in LIFO order, but one opened inside a
        generator the consumer abandoned may be finalized late, after
        its parent already closed over it — closing is idempotent and
        never pops spans that are not on *span*'s own branch.
        """
        if span in self._stack:
            while self._stack:
                top = self._stack.pop()
                top._close()
                if top is span:
                    return
        span._close()

    def span(
        self,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        kind: str = "operator",
        contract: Optional[str] = None,
    ) -> "_OpenSpan":
        """Open a span for a ``with`` block, which closes it — marked
        aborted when the block raises."""
        return _OpenSpan(self, self.open(name, attrs, kind=kind, contract=contract))

    def finish(self) -> None:
        while self._stack:
            self._stack.pop()._close()


class _OpenSpan:
    """:meth:`Tracer.span`'s context manager: a class rather than a
    generator, as it brackets the root span of every traced execution."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, *exc_info: Any) -> None:
        if exc_type is not None:
            self._span.mark_aborted(exc_type.__name__)
        self._tracer.close(self._span)


class Trace:
    """The result of one :func:`tracing` scope: a forest of span trees
    (one root per traced execution)."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    @property
    def roots(self) -> List[Span]:
        return self._tracer.roots

    @property
    def root(self) -> Optional[Span]:
        """The single root span, or None when empty/ambiguous."""
        return self.roots[0] if len(self.roots) == 1 else None

    def spans(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans() if s.name == name]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": TRACE_FORMAT_VERSION,
            "spans": [root.to_dict() for root in self.roots],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ---------------------------------------------------------------------- #
# the ambient tracer
# ---------------------------------------------------------------------- #

# A span stack is single-threaded by construction: an execution runs on
# the thread that called it, and its tracer is that thread's context's.


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer of this execution, or None when tracing is off."""
    return current().tracer


class tracing:
    """Run a block with span tracing enabled, yielding the :class:`Trace`.

    >>> from repro.engine.trace import tracing
    >>> with tracing() as trace:
    ...     pass  # run strategies / operators
    >>> trace.roots
    []

    A context-manager class, like :class:`~repro.engine.context.scope`:
    every traced execution enters one.
    """

    __slots__ = ("_tracer", "_scope")

    def __enter__(self) -> Trace:
        self._tracer = Tracer()
        self._scope = scope(tracer=self._tracer)
        self._scope.__enter__()
        return Trace(self._tracer)

    def __exit__(self, *exc_info: Any) -> None:
        try:
            self._scope.__exit__(*exc_info)
        finally:
            self._tracer.finish()


@contextmanager
def op_span(
    name: str,
    kind: str = "operator",
    contract: Optional[str] = None,
    **attrs: Any,
) -> Iterator[Optional[Span]]:
    """Open a span if tracing is active; yields None otherwise.

    Every traced call site opens its span through this wrapper (the row
    operators, nest, linking selections, phase markers) and guards its
    recording with ``if span is not None``.
    """
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    span = tracer.open(name, attrs, kind=kind, contract=contract)
    try:
        yield span
    except BaseException as exc:
        span.mark_aborted(type(exc).__name__)
        raise
    finally:
        tracer.close(span)


# ---------------------------------------------------------------------- #
# invariants
# ---------------------------------------------------------------------- #


def trace_invariant_violations(
    trace: Trace, result_cardinality: Optional[int] = None
) -> List[str]:
    """Check the span-tree invariants; returns violation messages.

    When *result_cardinality* is given, the root span of each traced
    execution must have emitted exactly that many rows.
    """
    violations: List[str] = []
    for root in trace.roots:
        if result_cardinality is not None and root.kind == "root":
            out = root.counters.get("rows_out")
            if out != result_cardinality:
                violations.append(
                    f"root span {root.name!r} rows_out={out} but the "
                    f"result has {result_cardinality} row(s)"
                )
        for span in root.walk():
            violations.extend(_span_violations(span))
    return violations


def _span_violations(span: Span) -> List[str]:
    out: List[str] = []
    where = f"span {span.name!r}"
    if not span.closed:
        out.append(f"{where} was never closed")
    for name, value in sorted(span.counters.items()):
        if value < 0:
            out.append(f"{where} counter {name!r} is negative ({value})")
    if span.aborted:
        # partial work: the structural checks below assume the operator
        # ran to completion, which an aborted span by definition did not
        return out
    rows_in = span.counters.get("rows_in")
    rows_out = span.counters.get("rows_out", 0)
    if span.contract is not None and rows_in is not None:
        if span.contract not in _CONTRACTS:
            out.append(f"{where} has unknown contract {span.contract!r}")
        elif span.contract == CONTRACT_FILTERING and rows_out > rows_in:
            out.append(
                f"{where} is filtering but emitted {rows_out} row(s) "
                f"from {rows_in}"
            )
        elif span.contract == CONTRACT_PRESERVING and rows_out != rows_in:
            out.append(
                f"{where} is row-preserving but emitted {rows_out} "
                f"row(s) from {rows_in}"
            )
        elif span.contract == CONTRACT_EXPANDING and rows_out < rows_in:
            out.append(
                f"{where} is expanding but emitted {rows_out} row(s) "
                f"from {rows_in}"
            )
    # row accounting: the rows an operator consumed must match
    # the rows its input operator spans report having produced.
    if span.kind == "operator" and rows_in is not None:
        inputs = [c for c in span.children if c.kind == "operator"]
        if inputs:
            fed = sum(c.counters.get("rows_out", 0) for c in inputs)
            if fed != rows_in:
                out.append(
                    f"{where} consumed rows_in={rows_in} but its input "
                    f"span(s) produced {fed}"
                )
    return out


def reconcile_with_metrics(
    trace: Trace, metrics_snapshot: Dict[str, int]
) -> List[str]:
    """Check that summed span metric deltas match the ``Metrics`` totals.

    *metrics_snapshot* is the counter dict of the :class:`Metrics` scope
    that covered exactly the traced execution(s) — every counter charged
    during the scope must be attributable to some span.
    """
    summed: Dict[str, int] = {}
    for span in trace.spans():
        for key, value in span.self_metrics().items():
            summed[key] = summed.get(key, 0) + value
    violations = []
    for key in sorted(set(summed) | set(metrics_snapshot)):
        a = summed.get(key, 0)
        b = metrics_snapshot.get(key, 0)
        if a != b:
            violations.append(
                f"summed span deltas for {key!r} = {a} but Metrics "
                f"recorded {b}"
            )
    return violations


# ---------------------------------------------------------------------- #
# rendering (EXPLAIN ANALYZE) and JSON validation
# ---------------------------------------------------------------------- #


def _format_attrs(attrs: Dict[str, Any], width: int = 48) -> str:
    if not attrs:
        return ""
    body = ", ".join(f"{k}={v}" for k, v in attrs.items())
    if len(body) > width:
        body = body[: width - 1] + "…"
    return f"({body})"


def render_span(
    span: Span, timings: bool = True, depth: int = 0, lines: Optional[List[str]] = None
) -> List[str]:
    lines = lines if lines is not None else []
    parts = ["  " * depth + span.name + _format_attrs(span.attrs)]
    rows_in = span.counters.get("rows_in")
    if rows_in is not None:
        parts.append(f"rows={rows_in}→{span.counters.get('rows_out', 0)}")
    elif "rows_out" in span.counters:
        parts.append(f"rows={span.counters['rows_out']}")
    for name, value in sorted(span.counters.items()):
        if name not in ("rows_in", "rows_out"):
            parts.append(f"{name}={value}")
    self_metrics = span.self_metrics()
    for name in RENDER_METRICS:
        if name in self_metrics:
            parts.append(f"{name}={self_metrics[name]}")
    if timings:
        parts.append(f"{span.wall_seconds * 1000:.2f}ms")
    lines.append("  ".join(parts))
    for child in span.children:
        render_span(child, timings=timings, depth=depth + 1, lines=lines)
    return lines


def render_trace(trace: Trace, timings: bool = True) -> str:
    """The annotated plan tree, one line per span (EXPLAIN ANALYZE)."""
    lines: List[str] = []
    for root in trace.roots:
        render_span(root, timings=timings, lines=lines)
    return "\n".join(lines)


def validate_trace_dict(data: Any) -> List[str]:
    """Structural validation of a serialized trace (``Trace.to_dict``).

    Mirrors ``schemas/trace.schema.json`` without requiring the
    ``jsonschema`` package; returns a list of problems (empty = valid).
    """
    problems: List[str] = []
    if not isinstance(data, dict):
        return ["trace document must be an object"]
    if data.get("version") not in SUPPORTED_TRACE_VERSIONS:
        problems.append(
            f"version must be one of {SUPPORTED_TRACE_VERSIONS}, "
            f"got {data.get('version')!r}"
        )
    spans = data.get("spans")
    if not isinstance(spans, list):
        return problems + ["'spans' must be a list"]

    def check_span(node: Any, path: str) -> None:
        if not isinstance(node, dict):
            problems.append(f"{path}: span must be an object")
            return
        if not isinstance(node.get("name"), str) or not node.get("name"):
            problems.append(f"{path}: 'name' must be a non-empty string")
        if not isinstance(node.get("kind"), str):
            problems.append(f"{path}: 'kind' must be a string")
        contract = node.get("contract")
        if contract is not None and contract not in _CONTRACTS:
            problems.append(f"{path}: unknown contract {contract!r}")
        wall = node.get("wall_seconds")
        if not isinstance(wall, (int, float)) or wall < 0:
            problems.append(f"{path}: 'wall_seconds' must be a number >= 0")
        for field in ("counters", "metrics"):
            bundle = node.get(field)
            if not isinstance(bundle, dict):
                problems.append(f"{path}: {field!r} must be an object")
                continue
            for key, value in bundle.items():
                if not isinstance(key, str) or not isinstance(value, int):
                    problems.append(
                        f"{path}: {field}[{key!r}] must map str -> int"
                    )
        attrs = node.get("attrs")
        if not isinstance(attrs, dict):
            problems.append(f"{path}: 'attrs' must be an object")
        children = node.get("children")
        if not isinstance(children, list):
            problems.append(f"{path}: 'children' must be a list")
            return
        for i, child in enumerate(children):
            check_span(child, f"{path}.children[{i}]")

    for i, root in enumerate(spans):
        check_span(root, f"spans[{i}]")
    return problems
