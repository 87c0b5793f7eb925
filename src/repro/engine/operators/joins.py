"""Join family: hash joins, outer joins, semijoins, antijoins.

The nested relational approach needs exactly one join flavour — the
(left outer) hash join — for correlation handling; the baselines
additionally use semijoin/antijoin (classical unnesting of positive /
``NOT EXISTS`` linking operators).

Each join is a function from two :class:`Relation`\\ s to a
:class:`Relation`: it opens one span named after the operator, runs to
completion, and charges its ``Metrics`` once, in a ``finally`` — so an
interrupted run still charges the work it reached.

All equi-joins hash on the equality columns and apply any residual
predicate (e.g. the non-equi half of ``T.K = R.C AND T.L <> S.I``) on the
candidate pairs.  A join with no equality conjunct degrades to a
nested-loop scan, which the planner charges accordingly.

NULL join keys never match (SQL semantics); for *outer* joins, left rows
with NULL keys still appear once, padded with NULLs on the right.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, List, Optional, Sequence

from ...errors import ExecutionError
from ..expressions import Expr, bind_truth
from ..governor import charge_rows, checkpoint, current_governor
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..trace import CONTRACT_EXPANDING, CONTRACT_FILTERING, op_span
from ..types import NULL, TRUE, bind_join_key
from .basic import CHECKPOINT_EVERY, charge_in, charge_out, checkpointed


#: rows the hash build inserts between cooperative checkpoints
BUILD_CHECKPOINT_EVERY = 2048


def _build(right: Relation, right_idx: Sequence[int]) -> Dict[Any, List[Row]]:
    """Hash *right* on its key columns (NULL keys skipped), with a
    checkpoint on entry and before its 2048th, 4096th, ... row.

    A relation that keeps builds (:meth:`Relation.kept_builds`) keeps
    the finished table, so a later build on it with the same keys only
    passes the entry checkpoint and charges what the build did; a
    build a checkpoint stops is never kept.  Two threads that build at
    once keep equal tables, so no lock is needed."""
    checkpoint("hash-build")
    n = len(right.rows)
    charge_rows(n, len(right.schema), "hash-join build")
    kept = right.kept_builds()
    positions = tuple(right_idx)
    table = None if kept is None else kept.get(positions)
    if table is not None:
        if n:
            current_metrics().add("hash_build_rows", n)
        return table
    key_of = bind_join_key(right_idx)
    table = {}
    get = table.get
    rows = iter(right.rows)
    built = 0
    try:
        every = BUILD_CHECKPOINT_EVERY
        for stop in (*range(every - 1, n, every), n):
            if built:
                checkpoint("hash-build")
            for row in islice(rows, stop - built):
                key = key_of(row)
                if key is None:
                    continue
                bucket = get(key)
                if bucket is None:
                    table[key] = [row]
                else:
                    bucket.append(row)
            built = stop
    finally:
        # a cancelled build still charges its rows
        if built:
            current_metrics().add("hash_build_rows", built)
    if kept is not None:
        kept[positions] = table
    return table


def _equi_join(
    name: str,
    contract: Optional[str],
    kind: str,
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual: Optional[Expr],
) -> Relation:
    """The equi-join family's one probe loop: build on *right*, then
    match each left row on the keys and the residual.

    *kind* says what a left row emits: its joined pairs (``inner``), its
    pairs or itself padded with NULLs (``outer``), or itself when some
    pair matched (``semi``) or none did (``anti``).  The residual judges
    the concatenated pair, and that tuple is the one emitted.

    One span *name*; charges the left input's ``rows_scanned``, the
    probe counters and ``rows_out`` once, wherever a checkpoint stops
    it — under a governor, once per 512 rows probed or matched."""
    pairs = kind in ("inner", "outer")
    anti = kind == "anti"
    pad = (NULL,) * len(right.schema) if kind == "outer" else None
    out: List[Row] = []
    consumed = scanned = evals = padded = 0
    with op_span(name, contract=contract, **_on(left_keys, right_keys)) as span:
        if len(left_keys) != len(right_keys):
            raise ExecutionError("left/right key lists must have equal length")
        left_idx = left.schema.indices_of(left_keys)
        table = _build(right, right.schema.indices_of(right_keys))
        if span is not None:
            span.set("hash_table_keys", len(table))
        holds = (
            None
            if residual is None
            else bind_truth(residual, left.schema.concat(right.schema))
        )
        # NULL keys are never built, so a NULL probe key finds nothing
        key_of = bind_join_key(left_idx) if left_idx else None
        get = table.get
        right_rows = right.rows
        append = out.append
        governed = current_governor() is not None
        budget = CHECKPOINT_EVERY
        try:
            for left_row in left.rows:
                consumed += 1
                if key_of is not None:
                    candidates = get(key_of(left_row), ())
                else:
                    candidates = right_rows
                    scanned += len(candidates)
                if governed:
                    budget -= 1 + len(candidates)
                    if budget <= 0:
                        checkpoint("operator-rows")
                        budget = CHECKPOINT_EVERY
                if holds is None:
                    matched = bool(candidates)
                    if pairs:
                        for right_row in candidates:
                            append(left_row + right_row)
                else:
                    evals += len(candidates)
                    matched = False
                    for right_row in candidates:
                        row = left_row + right_row
                        if holds(row) is TRUE:
                            matched = True
                            if pairs:
                                append(row)
                if not pairs:
                    if matched != anti:
                        append(left_row)
                elif not matched and pad is not None:
                    padded += 1
                    append(left_row + pad)
        finally:
            charge_in(span, consumed)
            metrics = current_metrics()
            if key_of is not None and consumed:
                metrics.add("hash_probes", consumed)
            if scanned:
                metrics.add("rows_scanned", scanned)
            if evals:
                metrics.add("predicate_evals", evals)
            charge_out(span, len(out), padded)
    schema = left.schema.concat(right.schema) if pairs else left.schema
    return Relation.adopt(schema, out)


def _on(left_keys: Sequence[str], right_keys: Sequence[str]) -> Dict[str, str]:
    """A hash join's span attributes: its equi-keys as ``on=``."""
    if not left_keys:
        return {}
    return {"on": ", ".join(f"{l}={r}" for l, r in zip(left_keys, right_keys))}


def hash_join(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual: Optional[Expr] = None,
) -> Relation:
    """Inner equi-join with optional residual predicate."""
    return _equi_join(
        "HashJoin", None, "inner", left, right, left_keys, right_keys, residual
    )


def left_outer_hash_join(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual: Optional[Expr] = None,
) -> Relation:
    """Left outer equi-join; unmatched left rows padded with NULLs.

    This is the workhorse of the nested relational approach: outer joins
    connect each subquery block to its outer block while *keeping* outer
    tuples whose subquery result is empty — the padded primary key of the
    inner block is how emptiness is later recognised.
    """
    return _equi_join(
        "LeftOuterHashJoin", CONTRACT_EXPANDING, "outer",
        left, right, left_keys, right_keys, residual,
    )


def semi_join(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual: Optional[Expr] = None,
) -> Relation:
    """Left rows with at least one qualifying right match (EXISTS/IN)."""
    return _equi_join(
        "SemiJoin", CONTRACT_FILTERING, "semi",
        left, right, left_keys, right_keys, residual,
    )


def anti_join(
    left: Relation,
    right: Relation,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    residual: Optional[Expr] = None,
) -> Relation:
    """Left rows with no qualifying right match (NOT EXISTS).

    Note: using an antijoin to evaluate ``NOT IN`` / ``ALL`` linking
    predicates is only sound when the linked attribute cannot be NULL;
    that soundness check lives in the *planner*, not here — this operator
    implements plain "no match survives".
    """
    return _equi_join(
        "AntiJoin", CONTRACT_FILTERING, "anti",
        left, right, left_keys, right_keys, residual,
    )


def outer_cross_join(left: Relation, right: Relation) -> Relation:
    """Cartesian product that pads (instead of dropping) left rows when
    the right input is empty.

    The subquery pipelines connect an *uncorrelated* block with this
    operator: an empty subquery result must not erase the outer tuples —
    a padded row (NULL rid) marks the empty set, which negative linking
    predicates then satisfy.  With a non-empty right input it is the
    plain Cartesian product.
    """
    right_rows = right.rows or [(NULL,) * len(right.schema)]
    out: List[Row] = []
    consumed = 0
    with op_span("OuterCrossJoin", contract=CONTRACT_EXPANDING) as span:
        try:
            for left_row in checkpointed(left.rows, 1 + len(right_rows)):
                consumed += 1
                for right_row in right_rows:
                    out.append(left_row + right_row)
        finally:
            charge_in(span, consumed)
            charge_out(span, len(out), 0 if right.rows else len(out))
    return Relation.adopt(left.schema.concat(right.schema), out)


def nested_loop_join(
    left: Relation,
    right: Relation,
    predicate: Optional[Expr] = None,
    outer: bool = False,
) -> Relation:
    """General theta-join by nested loops (used when no equi-conjunct
    exists); *outer* pads the left rows nothing matched, the reference
    the outer hash join is tested against."""
    schema = left.schema.concat(right.schema)
    pad = (NULL,) * len(right.schema)
    right_rows = right.rows
    out: List[Row] = []
    consumed = scanned = evals = padded = 0
    with op_span(
        "NestedLoopJoin", contract=CONTRACT_EXPANDING if outer else None
    ) as span:
        holds = None if predicate is None else bind_truth(predicate, schema)
        try:
            for left_row in checkpointed(left.rows, 1 + len(right_rows)):
                consumed += 1
                matched = False
                for right_row in right_rows:
                    scanned += 1
                    combined = left_row + right_row
                    if holds is not None:
                        evals += 1
                        if holds(combined) is not TRUE:
                            continue
                    matched = True
                    out.append(combined)
                if outer and not matched:
                    padded += 1
                    out.append(left_row + pad)
        finally:
            charge_in(span, consumed)
            metrics = current_metrics()
            if scanned:
                metrics.add("rows_scanned", scanned)
            if evals:
                metrics.add("predicate_evals", evals)
            charge_out(span, len(out), padded)
    return Relation.adopt(schema, out)
