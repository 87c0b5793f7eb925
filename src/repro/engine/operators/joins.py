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

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...errors import ExecutionError
from ..expressions import Expr, bind_truth
from ..governor import charge_rows, checkpoint
from ..index import HashIndex
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..schema import Schema
from ..types import NULL, TRUE, bind_join_key
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

    def build(self) -> Dict[Any, List[Row]]:
        """Hash the right input on its key columns (NULL keys skipped)."""
        checkpoint("hash-build")
        charge_rows(
            len(self.right.rows), len(self.right.schema), "hash-join build"
        )
        key_of = bind_join_key(self.right_idx)
        table: Dict[Any, List[Row]] = {}
        built = 0
        try:
            for row in self.right.rows:
                if not (built + 1) % 2048:
                    checkpoint("hash-build")
                built += 1
                key = key_of(row)
                if key is None:
                    continue
                bucket = table.get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
        finally:
            # once per build; a cancelled build still charges its rows
            if built:
                current_metrics().add("hash_build_rows", built)
        return table

    def probe(
        self, table: Dict[Any, List[Row]], left_rows: Iterable[Row]
    ) -> Iterator[Tuple[Row, Sequence[Row]]]:
        """Each left row with the right rows matching it on the keys and
        the residual predicate.  The key extractor and the residual are
        bound for this run, and its probe counters are charged once — at
        the end, or wherever the consumer stops."""
        holds = (
            None
            if self.residual is None
            else bind_truth(self.residual, self.combined)
        )
        key_of = bind_join_key(self.left_idx) if self.left_idx else None
        right_rows = self.right.rows
        probes = scanned = evals = 0
        try:
            for left_row in left_rows:
                if key_of is not None:
                    probes += 1
                    key = key_of(left_row)
                    candidates = table.get(key, ()) if key is not None else ()
                else:
                    candidates = right_rows
                    scanned += len(candidates)
                if holds is not None and candidates:
                    evals += len(candidates)
                    candidates = [
                        r for r in candidates if holds(left_row + r) is TRUE
                    ]
                yield left_row, candidates
        finally:
            metrics = current_metrics()
            if probes:
                metrics.add("hash_probes", probes)
            if scanned:
                metrics.add("rows_scanned", scanned)
            if evals:
                metrics.add("predicate_evals", evals)


class _HashJoinBase(Operator):
    """The hash-join family: one build, one probe pass, and what each
    member emits per probed left row.  ``rows_out`` and
    ``null_padded_rows`` are counted locally and charged once per run."""

    spec: JoinSpec

    def __init__(self, left, right, left_keys, right_keys,
                 residual: Optional[Expr] = None):
        self.spec = JoinSpec(left, right, left_keys, right_keys, residual)
        self.schema = self._output_schema()

    def _output_schema(self) -> Schema:
        return self.spec.combined

    def trace_attrs(self):
        if not self.spec.left_keys:
            return {}
        on = ", ".join(
            f"{l}={r}" for l, r in zip(self.spec.left_keys, self.spec.right_keys)
        )
        return {"on": on}

    def _probed(self) -> Iterator[Tuple[Row, Sequence[Row]]]:
        """Build, note the table size on the open span, probe."""
        spec = self.spec
        table = spec.build()
        span = self._span
        if span is not None:
            span.set("hash_table_keys", len(table))
        return spec.probe(table, self._input(spec.left))


class HashJoin(_HashJoinBase):
    """Inner equi-join with optional residual predicate."""

    def _iterate(self) -> Iterator[Row]:
        out = 0
        try:
            for left_row, matched in self._probed():
                for right_row in matched:
                    out += 1
                    yield left_row + right_row
        finally:
            if out:
                self._emit(out)


class LeftOuterHashJoin(_HashJoinBase):
    """Left outer equi-join; unmatched left rows padded with NULLs.

    This is the workhorse of the nested relational approach: outer joins
    connect each subquery block to its outer block while *keeping* outer
    tuples whose subquery result is empty — the padded primary key of the
    inner block is how emptiness is later recognised.
    """

    trace_contract = CONTRACT_EXPANDING

    def _iterate(self) -> Iterator[Row]:
        pad = (NULL,) * len(self.spec.right.schema)
        out = padded = 0
        try:
            for left_row, matched in self._probed():
                if matched:
                    for right_row in matched:
                        out += 1
                        yield left_row + right_row
                else:
                    padded += 1
                    yield left_row + pad
        finally:
            if padded:
                current_metrics().add("null_padded_rows", padded)
            if out + padded:
                self._emit(out + padded)


class SemiJoin(_HashJoinBase):
    """Left rows with at least one qualifying right match (EXISTS/IN)."""

    trace_contract = CONTRACT_FILTERING

    def _output_schema(self) -> Schema:
        return self.spec.left.schema

    def _iterate(self) -> Iterator[Row]:
        out = 0
        try:
            for left_row, matched in self._probed():
                if matched:
                    out += 1
                    yield left_row
        finally:
            if out:
                self._emit(out)


class AntiJoin(_HashJoinBase):
    """Left rows with no qualifying right match (NOT EXISTS).

    Note: using an antijoin to evaluate ``NOT IN`` / ``ALL`` linking
    predicates is only sound when the linked attribute cannot be NULL;
    that soundness check lives in the *planner*, not here — this operator
    implements plain "no match survives".
    """

    trace_contract = CONTRACT_FILTERING

    def _output_schema(self) -> Schema:
        return self.spec.left.schema

    def _iterate(self) -> Iterator[Row]:
        out = 0
        try:
            for left_row, matched in self._probed():
                if not matched:
                    out += 1
                    yield left_row
        finally:
            if out:
                self._emit(out)


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
