"""Physical operator protocol.

Operators follow the classic iterator (Volcano) model: each exposes an
output :class:`~repro.engine.schema.Schema` and yields row tuples.  They
charge work to the ambient :class:`~repro.engine.metrics.Metrics` so the
benchmark harness can report machine-independent costs.

Operators may be iterated only once unless noted; call :meth:`materialize`
to pin results.

Tracing: subclasses implement :meth:`_iterate`; the base ``__iter__``
dispatches to it directly when tracing is off (one ``is None`` check of
overhead) and wraps it in a :class:`~repro.engine.trace.Span` recording
``rows_in``/``rows_out`` when a :func:`~repro.engine.trace.tracing`
context is active.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional

from ...errors import ExecutionError
from ..governor import checkpoint, current_governor
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..schema import Schema
from ..trace import CONTRACT_PRESERVING, Span, Tracer, current_tracer

#: rows between cooperative checkpoints while an operator drains under a
#: governor — bounds timeout overshoot by the time 512 rows take
_CHECKPOINT_EVERY = 512


def _count_rows_in(source, span: Span) -> Iterator[Row]:
    """*source*, with the rows pulled from it counted as the span's
    ``rows_in`` — once, when the consumer finishes or abandons it."""
    pulled = 0
    try:
        for row in source:
            pulled += 1
            yield row
    finally:
        if pulled:
            span.add("rows_in", pulled)


def _governed_iter(it: Iterator[Row]) -> Iterator[Row]:
    n = 0
    for row in it:
        n += 1
        if not n % _CHECKPOINT_EVERY:
            checkpoint("operator-rows")
        yield row


class Operator:
    """Base class for physical operators."""

    #: output schema; subclasses set this in __init__
    schema: Schema

    #: cardinality contract checked by the trace invariants
    #: (one of the ``repro.engine.trace.CONTRACT_*`` values, or None)
    trace_contract: Optional[str] = None

    #: the open span while this operator is being traced
    _span: Optional[Span] = None

    def __iter__(self) -> Iterator[Row]:
        tracer = current_tracer()
        it = self._iterate() if tracer is None else self._traced_iter(tracer)
        if current_governor() is None:
            return it
        return _governed_iter(it)

    def _iterate(self) -> Iterator[Row]:
        raise NotImplementedError

    def trace_attrs(self) -> Dict[str, Any]:
        """Short, deterministic attributes shown on the span's plan line."""
        return {}

    def _traced_iter(self, tracer: Tracer) -> Iterator[Row]:
        span = tracer.open(
            type(self).__name__, self.trace_attrs(), contract=self.trace_contract
        )
        self._span = span
        rows = iter(self._iterate())
        out = 0
        try:
            for row in rows:
                out += 1
                yield row
        finally:
            # a consumer that stopped early (Limit) finalizes the
            # operator here, so the counters it batches land in its span
            close = getattr(rows, "close", None)
            if close is not None:
                close()
            if out:
                span.add("rows_out", out)
            self._span = None
            tracer.close(span)

    def _input(self, source) -> Iterator[Row]:
        """Wrap an input iterable so consumed rows count as ``rows_in``.

        Returns *source* untouched when this operator is not being
        traced, so the disabled path adds no per-row work.
        """
        span = self._span
        if span is None:
            return source
        return _count_rows_in(source, span)

    def materialize(self) -> Relation:
        """Drain the operator into a :class:`Relation`."""
        return Relation.from_iter(self.schema, iter(self))

    def _emit(self, n: int = 1) -> None:
        current_metrics().add("rows_out", n)


class RelationSource(Operator):
    """Adapts a materialized :class:`Relation` into the operator protocol."""

    trace_contract = CONTRACT_PRESERVING

    def __init__(self, relation: Relation):
        self.relation = relation
        self.schema = relation.schema

    def trace_attrs(self) -> Dict[str, Any]:
        tables = {c.table for c in self.schema.columns if c.table}
        return {"table": "/".join(sorted(tables))} if tables else {}

    def _iterate(self) -> Iterator[Row]:
        scanned = 0
        try:
            for row in self._input(self.relation.rows):
                scanned += 1
                yield row
        finally:
            # once per scan; a consumer that stops early (Limit) still
            # charges the rows it pulled
            if scanned:
                current_metrics().add("rows_scanned", scanned)


def as_operator(source) -> Operator:
    """Coerce a Relation or Operator into an Operator."""
    if isinstance(source, Operator):
        return source
    if isinstance(source, Relation):
        return RelationSource(source)
    raise ExecutionError(f"cannot treat {type(source).__name__} as an operator")


def as_relation(source) -> Relation:
    """Coerce a Relation or Operator into a materialized Relation."""
    if isinstance(source, Relation):
        return source
    if isinstance(source, Operator):
        return source.materialize()
    raise ExecutionError(f"cannot treat {type(source).__name__} as a relation")
