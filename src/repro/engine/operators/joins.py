"""Join family: hash joins, outer joins, semijoins, antijoins.

The nested relational approach needs exactly one join flavour — the
(left outer) hash join — for correlation handling; the baselines
additionally use semijoin/antijoin (classical unnesting of positive /
``NOT EXISTS`` linking operators) and index nested-loop joins (the
"System A" nested-iteration plans).

All equi-joins hash on the equality columns and apply any residual
predicate (e.g. the non-equi half of ``T.K = R.C AND T.L <> S.I``) on the
candidate pairs.  A join with no equality conjunct degrades to a
nested-loop scan, which the planner charges accordingly.

NULL join keys never match (SQL semantics); for *outer* joins, left rows
with NULL keys still appear once, padded with NULLs on the right.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ...errors import ExecutionError
from ..expressions import Expr, bind_truth
from ..governor import charge_rows, checkpoint
from ..index import HashIndex
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..schema import Schema
from ..types import NULL, TRUE, is_null, row_group_key
from ..trace import CONTRACT_EXPANDING, CONTRACT_FILTERING
from .base import Operator, as_operator, as_relation


class JoinSpec:
    """Shared machinery: resolve key columns, build/probe, residual check."""

    def __init__(
        self,
        left,
        right,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Optional[Expr] = None,
    ):
        if len(left_keys) != len(right_keys):
            raise ExecutionError("left/right key lists must have equal length")
        self.left = as_operator(left)
        self.right = as_relation(right)
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.residual = residual
        self.left_idx = self.left.schema.indices_of(self.left_keys)
        self.right_idx = self.right.schema.indices_of(self.right_keys)
        self.combined = self.left.schema.concat(self.right.schema)

    def build(self) -> Dict[tuple, List[Row]]:
        """Hash the right input on its key columns (NULL keys skipped)
        and bind the residual for this run's :meth:`matches` calls."""
        self._residual_holds = (
            None
            if self.residual is None
            else bind_truth(self.residual, self.combined)
        )
        checkpoint("hash-build")
        charge_rows(
            len(self.right.rows), len(self.right.schema), "hash-join build"
        )
        table: Dict[tuple, List[Row]] = {}
        built = 0
        try:
            for row in self.right.rows:
                if not (built + 1) % 2048:
                    checkpoint("hash-build")
                built += 1
                key_vals = tuple(row[i] for i in self.right_idx)
                if any(is_null(v) for v in key_vals):
                    continue
                table.setdefault(row_group_key(key_vals), []).append(row)
        finally:
            # once per build; a cancelled build still charges its rows
            if built:
                current_metrics().add("hash_build_rows", built)
        return table

    def right_rows(self) -> List[Row]:
        return self.right.rows

    def matches(self, table: Dict[tuple, List[Row]], left_row: Row) -> List[Row]:
        """Right rows matching *left_row* on keys and residual predicate."""
        metrics = current_metrics()
        if self.left_idx:
            key_vals = tuple(left_row[i] for i in self.left_idx)
            metrics.add("hash_probes")
            if any(is_null(v) for v in key_vals):
                return []
            candidates = table.get(row_group_key(key_vals), [])
        else:
            candidates = self.right.rows
            metrics.add("rows_scanned", len(candidates))
        holds = self._residual_holds
        if holds is None or not candidates:
            return candidates
        metrics.add("predicate_evals", len(candidates))
        return [r for r in candidates if holds(left_row + r) is TRUE]


class _HashJoinBase(Operator):
    """Shared trace hooks for the hash-join family."""

    spec: JoinSpec

    def trace_attrs(self):
        if not self.spec.left_keys:
            return {}
        on = ", ".join(
            f"{l}={r}" for l, r in zip(self.spec.left_keys, self.spec.right_keys)
        )
        return {"on": on}

    def _note_build(self, table) -> None:
        """Record the hash-table build size on the open span."""
        span = self._span
        if span is not None:
            span.set("hash_table_keys", len(table))


class HashJoin(_HashJoinBase):
    """Inner equi-join with optional residual predicate."""

    def __init__(self, left, right, left_keys, right_keys,
                 residual: Optional[Expr] = None):
        self.spec = JoinSpec(left, right, left_keys, right_keys, residual)
        self.schema = self.spec.combined

    def _iterate(self) -> Iterator[Row]:
        table = self.spec.build()
        self._note_build(table)
        for left_row in self._input(self.spec.left):
            for right_row in self.spec.matches(table, left_row):
                self._emit()
                yield left_row + right_row


class LeftOuterHashJoin(_HashJoinBase):
    """Left outer equi-join; unmatched left rows padded with NULLs.

    This is the workhorse of the nested relational approach: outer joins
    connect each subquery block to its outer block while *keeping* outer
    tuples whose subquery result is empty — the padded primary key of the
    inner block is how emptiness is later recognised.
    """

    trace_contract = CONTRACT_EXPANDING

    def __init__(self, left, right, left_keys, right_keys,
                 residual: Optional[Expr] = None):
        self.spec = JoinSpec(left, right, left_keys, right_keys, residual)
        self.schema = self.spec.combined
        self._pad = (NULL,) * len(self.spec.right.schema)

    def _iterate(self) -> Iterator[Row]:
        metrics = current_metrics()
        table = self.spec.build()
        self._note_build(table)
        for left_row in self._input(self.spec.left):
            matched = self.spec.matches(table, left_row)
            if matched:
                for right_row in matched:
                    self._emit()
                    yield left_row + right_row
            else:
                metrics.add("null_padded_rows")
                self._emit()
                yield left_row + self._pad


class SemiJoin(_HashJoinBase):
    """Left rows with at least one qualifying right match (EXISTS/IN)."""

    trace_contract = CONTRACT_FILTERING

    def __init__(self, left, right, left_keys, right_keys,
                 residual: Optional[Expr] = None):
        self.spec = JoinSpec(left, right, left_keys, right_keys, residual)
        self.schema = self.spec.left.schema

    def _iterate(self) -> Iterator[Row]:
        table = self.spec.build()
        self._note_build(table)
        for left_row in self._input(self.spec.left):
            if self.spec.matches(table, left_row):
                self._emit()
                yield left_row


class AntiJoin(_HashJoinBase):
    """Left rows with no qualifying right match (NOT EXISTS).

    Note: using an antijoin to evaluate ``NOT IN`` / ``ALL`` linking
    predicates is only sound when the linked attribute cannot be NULL;
    that soundness check lives in the *planner*, not here — this operator
    implements plain "no match survives".
    """

    trace_contract = CONTRACT_FILTERING

    def __init__(self, left, right, left_keys, right_keys,
                 residual: Optional[Expr] = None):
        self.spec = JoinSpec(left, right, left_keys, right_keys, residual)
        self.schema = self.spec.left.schema

    def _iterate(self) -> Iterator[Row]:
        table = self.spec.build()
        self._note_build(table)
        for left_row in self._input(self.spec.left):
            if not self.spec.matches(table, left_row):
                self._emit()
                yield left_row


class CrossJoin(Operator):
    """Cartesian product (the paper's "virtual Cartesian product" for
    non-correlated subqueries is implemented without this, but the operator
    exists for completeness and for the classical-transformation baseline).
    """

    def __init__(self, left, right):
        self.left = as_operator(left)
        self.right = as_relation(right)
        self.schema = self.left.schema.concat(self.right.schema)

    def _iterate(self) -> Iterator[Row]:
        right_rows = self.right.rows
        for left_row in self._input(self.left):
            for right_row in right_rows:
                self._emit()
                yield left_row + right_row


class OuterCrossJoin(Operator):
    """Cartesian product that pads (instead of dropping) left rows when
    the right input is empty.

    The subquery pipelines connect an *uncorrelated* block with this
    operator: an empty subquery result must not erase the outer tuples —
    a padded row (NULL rid) marks the empty set, which negative linking
    predicates then satisfy.  With a non-empty right input it behaves
    exactly like :class:`CrossJoin`.
    """

    trace_contract = CONTRACT_EXPANDING

    def __init__(self, left, right):
        self.left = as_operator(left)
        self.right = as_relation(right)
        self.schema = self.left.schema.concat(self.right.schema)
        self._pad = (NULL,) * len(self.right.schema)

    def _iterate(self) -> Iterator[Row]:
        metrics = current_metrics()
        right_rows = self.right.rows
        for left_row in self._input(self.left):
            if not right_rows:
                metrics.add("null_padded_rows")
                self._emit()
                yield left_row + self._pad
                continue
            for right_row in right_rows:
                self._emit()
                yield left_row + right_row


class NestedLoopJoin(Operator):
    """General theta-join by nested loops (used when no equi-conjunct
    exists, and by the System A emulation when it scans instead of probing).
    """

    def __init__(self, left, right, predicate: Optional[Expr] = None,
                 outer: bool = False):
        self.left = as_operator(left)
        self.right = as_relation(right)
        self.predicate = predicate
        self.outer = outer
        if outer:
            self.trace_contract = CONTRACT_EXPANDING
        self.schema = self.left.schema.concat(self.right.schema)
        self._pad = (NULL,) * len(self.right.schema)

    def _iterate(self) -> Iterator[Row]:
        metrics = current_metrics()
        holds = (
            None
            if self.predicate is None
            else bind_truth(self.predicate, self.schema)
        )
        for left_row in self._input(self.left):
            matched = False
            for right_row in self.right.rows:
                metrics.add("rows_scanned")
                combined = left_row + right_row
                if holds is not None:
                    metrics.add("predicate_evals")
                    if holds(combined) is not TRUE:
                        continue
                matched = True
                self._emit()
                yield combined
            if self.outer and not matched:
                metrics.add("null_padded_rows")
                self._emit()
                yield left_row + self._pad


class IndexNestedLoopJoin(Operator):
    """Nested loop join probing a prebuilt hash index on the inner side.

    This is the access path the paper's System A uses during nested
    iteration ("lineitem is accessed by index rowid").  The index covers a
    subset of the equi-join columns; the remaining conjuncts and any
    residual predicate are applied to fetched rows.
    """

    def __init__(
        self,
        left,
        index: HashIndex,
        left_probe_keys: Sequence[str],
        residual: Optional[Expr] = None,
        outer: bool = False,
    ):
        self.left = as_operator(left)
        self.index = index
        self.left_probe_idx = self.left.schema.indices_of(left_probe_keys)
        self.residual = residual
        self.outer = outer
        if outer:
            self.trace_contract = CONTRACT_EXPANDING
        self.inner_schema = index.relation.schema
        self.schema = self.left.schema.concat(self.inner_schema)
        self._pad = (NULL,) * len(self.inner_schema)

    def _iterate(self) -> Iterator[Row]:
        metrics = current_metrics()
        holds = (
            None
            if self.residual is None
            else bind_truth(self.residual, self.schema)
        )
        for left_row in self._input(self.left):
            probe = tuple(left_row[i] for i in self.left_probe_idx)
            matched = False
            for inner_row in self.index.probe(probe):
                combined = left_row + inner_row
                if holds is not None:
                    metrics.add("predicate_evals")
                    if holds(combined) is not TRUE:
                        continue
                matched = True
                self._emit()
                yield combined
            if self.outer and not matched:
                metrics.add("null_padded_rows")
                self._emit()
                yield left_row + self._pad
