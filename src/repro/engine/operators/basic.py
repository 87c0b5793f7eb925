"""Row-at-a-time operators: scan, filter, project, distinct, limit, rename.

These are the unary building blocks every strategy shares.  The join
family lives in :mod:`repro.engine.operators.joins`; grouping in
:mod:`repro.engine.operators.aggregate`.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence

from ...errors import ExecutionError
from ..expressions import Expr, bind_truth, bind_value
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..schema import Column, Schema
from ..types import TRUE, row_group_key, row_sort_key
from ..trace import (
    CONTRACT_FILTERING,
    CONTRACT_PRESERVING,
)
from .base import Operator, as_operator


class Filter(Operator):
    """Keep rows whose predicate is definitely TRUE (SQL WHERE)."""

    trace_contract = CONTRACT_FILTERING

    def __init__(self, source, predicate: Expr):
        self.source = as_operator(source)
        self.predicate = predicate
        self.schema = self.source.schema

    def _iterate(self) -> Iterator[Row]:
        metrics = current_metrics()
        holds = bind_truth(self.predicate, self.schema)
        for row in self._input(self.source):
            metrics.add("predicate_evals")
            if holds(row) is TRUE:
                self._emit()
                yield row


class Project(Operator):
    """Projection onto a list of column references (no dedup)."""

    trace_contract = CONTRACT_PRESERVING

    def __init__(self, source, refs: Sequence[str]):
        self.source = as_operator(source)
        self.refs = list(refs)
        self._idx = self.source.schema.indices_of(self.refs)
        self.schema = self.source.schema.project(self.refs)

    def _iterate(self) -> Iterator[Row]:
        idx = self._idx
        for row in self._input(self.source):
            self._emit()
            yield tuple(row[i] for i in idx)


class Map(Operator):
    """Compute expressions into new columns (SELECT list with expressions)."""

    trace_contract = CONTRACT_PRESERVING

    def __init__(self, source, exprs: Sequence[Expr], columns: Sequence[Column]):
        if len(exprs) != len(columns):
            raise ExecutionError("Map needs one output column per expression")
        self.source = as_operator(source)
        self.exprs = list(exprs)
        self.schema = Schema(columns)

    def _iterate(self) -> Iterator[Row]:
        values = [bind_value(e, self.source.schema) for e in self.exprs]
        for row in self._input(self.source):
            self._emit()
            yield tuple(value(row) for value in values)


class Distinct(Operator):
    """Duplicate elimination; NULLs compare equal for grouping purposes."""

    trace_contract = CONTRACT_FILTERING

    def __init__(self, source):
        self.source = as_operator(source)
        self.schema = self.source.schema

    def _iterate(self) -> Iterator[Row]:
        seen = set()
        metrics = current_metrics()
        for row in self._input(self.source):
            key = row_group_key(row)
            metrics.add("hash_probes")
            if key not in seen:
                seen.add(key)
                self._emit()
                yield row


class Limit(Operator):
    """Emit at most *n* rows."""

    trace_contract = CONTRACT_FILTERING

    def __init__(self, source, n: int):
        self.source = as_operator(source)
        self.n = n
        self.schema = self.source.schema

    def _iterate(self) -> Iterator[Row]:
        if self.n <= 0:
            return
        count = 0
        for row in self._input(self.source):
            self._emit()
            yield row
            count += 1
            if count >= self.n:
                break


class Rename(Operator):
    """Re-qualify all columns under an alias (SQL ``FROM t AS x``)."""

    trace_contract = CONTRACT_PRESERVING

    def __init__(self, source, alias: str):
        self.source = as_operator(source)
        self.schema = self.source.schema.rename_table(alias)

    def _iterate(self) -> Iterator[Row]:
        return iter(self._input(self.source))


class Sort(Operator):
    """Full sort on the given columns using the canonical NULLs-first order.

    Sort-based ``nest`` is implemented on top of this operator, mirroring
    the paper's stored-procedure implementation, which "makes the database
    sort the intermediate result".
    """

    trace_contract = CONTRACT_PRESERVING

    def __init__(self, source, refs: Sequence[str], descending: bool = False):
        self.source = as_operator(source)
        self.refs = list(refs)
        self.descending = descending
        self._idx = self.source.schema.indices_of(self.refs)
        self.schema = self.source.schema

    def _iterate(self) -> Iterator[Row]:
        rows = list(self._input(self.source))
        metrics = current_metrics()
        metrics.add("rows_sorted", len(rows))
        idx = self._idx
        rows.sort(
            key=lambda r: row_sort_key(tuple(r[i] for i in idx)),
            reverse=self.descending,
        )
        for row in rows:
            self._emit()
            yield row
