"""Fused batch nest + linking selection, and the vectorized
virtual-Cartesian-product link.

The row backend materializes nested relations: ``nest`` builds one row
per group holding a set of members, then the linking (σ) or pseudo (σ*)
selection walks the groups.  The batch backend fuses the two: groups are
a factorization (``ids``) of the flat batch over the nesting attributes,
and each linking predicate becomes a per-group boolean aggregate:

* ``EXISTS`` / ``NOT EXISTS`` — count of *live* members (rows whose
  synthetic ``_rid`` is non-NULL: the pk-is-NULL convention marks
  padded rows as "not really a member");
* ``θ SOME`` — TRUE iff some live member's comparison is TRUE
  (``bincount`` over the comparison's true-mask), FALSE iff every live
  member's comparison is FALSE (vacuously FALSE on the empty group);
* ``θ ALL`` — TRUE iff no live member's comparison is FALSE or UNKNOWN
  (vacuously TRUE on the empty group), FALSE iff some member's
  comparison is FALSE;
* aggregate links (``lhs θ agg({B})``) — a validity-bitmap group
  aggregation (``bincount`` counts and float sums, ``ufunc.at`` min/max
  and int sums, exact as Python ints) followed by one vectorized
  comparison per group.

Quantifier verdicts are computed from the comparison's own
``(true, false)`` masks on the *original* θ — never by the De Morgan
``ALL θ ≡ ¬(SOME ¬θ)`` trick, which is only sound when UNKNOWN
propagates symmetrically.  Under the two-valued mode a NULL-touching
comparison is simply FALSE (no UNKNOWN mask), and the direct formulation
stays exact while De Morgan would not (``5 > ALL {2, NULL}`` must be
FALSE, not TRUE).

Every linking operator of the vector engine — the nest link, the
uncorrelated link and the backend's disjunctive residual — ends in the
one tail :func:`select`, handed a mask pair and the source row of each
output row: strict selection keeps the passing rows (for a nest, one row
per group, projected to the nesting attributes); pseudo selection keeps
every row but NULLs out the current block's attributes of failing ones;
mark evaluation keeps every row and appends the three-valued verdict as
a boolean column for the parent block's disjunctive residual.

There is one nest body (``_nest_link``); it reads its input through a
*member* batch — the columns it groups and judges on — and takes each
group's output row from N1 at the group's first member.
:func:`nest_link` is the case where both are the input batch itself.
:func:`join_nest` is Algorithm 1's leaf edge, ⟕ straight into υ: the
join stops at its pair index, the members are gathered at the pairs
(the key, the child's rid, the link's operands — a handful of narrow
columns) and N1 is the accumulated relation's, read at one row per
group — the groupjoin of Moerkotte & Neumann restricted to that edge.
An ``EXISTS`` / ``NOT EXISTS`` edge forms no pairs at all: the join
counts each left row's members (:func:`~.kernels.match_counts`), the
groupjoin with ``COUNT``.  When the planner has proved the edge
*keyed* — no two left rows agree on the key, so each is one group —
the groups are read off the pair index and nothing is grouped.

The uncorrelated link shares the member set across all outer rows, so
``θ SOME`` collapses to a single existence test against the member
multiset: ``isin`` for ``=``, a distinct-count argument for ``<>``,
min/max bounds for the orderings.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...core.query_tree import NestLink, OuterJoin, UncorrelatedLink
from ..expressions import Col, Comparison
from ..governor import charge_rows, checkpoint
from ..logic import two_valued
from ..metrics import current_metrics
from ..operators.aggregate import _finish
from ..schema import Column
from ..trace import CONTRACT_FILTERING, CONTRACT_PRESERVING, note_rows, op_span
from ..types import NULL, is_null, negate_op
from .batch import Batch
from .column import (
    FLOAT_EXACT_INT,
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_STR,
    Vector,
    mask_columns,
)
from .exprs import _fast_comparable, compare_vectors
from .kernels import dense_group_ids, first_occurrences, left_outer_join_index

#: a nest's groups handed over ready: each member's group id, numbered in
#: appearance order, and each group's first member
Groups = Tuple[np.ndarray, np.ndarray]


def nest_link(batch: Batch, node: NestLink) -> Batch:
    """Nest *batch* by ``node.by`` and apply the linking predicate in one
    pass.

    ``by`` is the nesting attribute list N1 — the output projection and
    the span's ``by=`` — and ``key`` the columns that decide the groups:
    Algorithm 1 passes the rids of the path blocks, on which equality
    is equivalent to equality on all of ``by`` (DESIGN §9, "Nest by key").
    The batch is grouped once on the key, the per-group verdicts are
    computed in one pass, and the output is assembled once from the
    verdict masks.

    Under a spill-enabled governor whose budget the grouping pass would
    breach, the nest runs out-of-core (:mod:`repro.engine.spill`):
    groups are scattered whole over disk partitions and each partition
    re-enters this function with a fitting slice.
    """
    from ..spill import maybe_spill_nest_link

    spilled = maybe_spill_nest_link(batch, node)
    if spilled is not None:
        return spilled
    return _nest_link(
        node, len(batch), lambda: (batch, None, None, None),
        batch.project(node.by),
    )


def join_nest(
    left: Batch,
    right: Batch,
    join: OuterJoin,
    node: NestLink,
) -> Batch:
    """``nest_link(left_outer_hash_join(left, right, …), node)`` — the
    way down and back up of a leaf block — without building the join.

    The join is computed as its pair index only (same span, metrics and
    charge as the built batch, :func:`~.kernels.left_outer_join_index`).
    The nest then gathers, at those pairs, just the columns it groups
    and judges on — the key, the member rid and the link's operands —
    and its output rows straight from ``left.project(by)``: at a leaf
    edge N1 and the key are the accumulated relation's columns, so a
    group's representative pair ``p`` supplies left row ``all_li[p]``.

    An existential edge (:func:`_member_count`) does not form the pairs
    either: the join counts each left row's pairs, and each left row
    stands for all of them — one member, live iff some pair's member
    rid is — in the order of its first pair (:func:`_counted_nest`).

    On a *keyed* edge (``node.keyed``: no two left rows agree on the
    key; DESIGN §9, "Keyed leaf edges") each left row is one group, so
    the groups are read off the pair index (:func:`_runs`) or the
    counted rows, and the key is neither gathered nor grouped on.

    A join that spilled, or a nest that would, takes the ordinary pair
    on the built batch, so every spill decision stays what it was.
    """
    from ..spill import nest_spills

    count = _member_count(left, right, join, node)
    joined = left_outer_join_index(
        left, right, join.outer_keys, join.inner_keys, join.residual,
        materialize=lambda n_rows: nest_spills(n_rows, len(node.by)),
        count=count,
    )
    checkpoint("nest")
    if isinstance(joined, Batch):
        return nest_link(joined, node)
    if count is not None:
        return _counted_nest(left, right, node, *joined)
    all_li, all_ri = joined
    link = node.link
    key = () if node.keyed else node.key
    refs = [
        r
        for r in dict.fromkeys(
            (*key, node.rid_ref, link.inner_ref, link.outer_ref)
        )
        if r is not None
    ]

    def members():
        batch = Batch.concat_columns(
            left.project([r for r in refs if left.schema.has(r)]).take(all_li),
            right.project(
                [r for r in refs if right.schema.has(r)]
            ).take_padded(all_ri),
        )
        return batch, all_li, None, _runs(all_li) if node.keyed else None

    return _nest_link(node, len(all_li), members, left.project(node.by))


def _runs(all_li: np.ndarray) -> Groups:
    """A keyed leaf edge's groups, numbered in appearance order: each
    left row is one group, and its pairs are one run of *all_li* (the
    matched pairs in ascending left order, then each unmatched row
    once).  Returns the group ids and each group's first pair."""
    head = np.ones(len(all_li), dtype=bool)
    head[1:] = all_li[1:] != all_li[:-1]
    return np.cumsum(head, dtype=np.int64) - 1, np.flatnonzero(head)


#: operand kinds whose join codes are value equality, the equality
#: ``<>`` negates
_COUNTED_KINDS = (KIND_INT, KIND_STR, KIND_BOOL)


def _member_count(
    left: Batch, right: Batch, join: OuterJoin, node: NestLink
) -> Optional[Tuple[Tuple[str, ...], Optional[np.ndarray]]]:
    """The :func:`~.kernels.left_outer_join_index` *count* argument of an
    ``EXISTS`` / ``NOT EXISTS`` edge with equi keys and a residual that
    is None or one same-kind ``<>`` between a left and a right column
    (either orientation), or None when the verdict needs the pairs.
    The live rows are those whose member rid is non-NULL."""
    if node.predicate.quantifier not in ("exists", "not_exists"):
        return None
    if not join.outer_keys or not _sided(right, left, node.rid_ref):
        return None
    if not all(_sided(left, right, ref) for ref in node.key):
        return None
    residual = join.residual
    if residual is None:
        operands: Tuple[str, ...] = ()
    elif (
        isinstance(residual, Comparison)
        and residual.op == "<>"
        and isinstance(residual.left, Col)
        and isinstance(residual.right, Col)
    ):
        x, y = residual.left.ref, residual.right.ref
        if _sided(left, right, x) and _sided(right, left, y):
            operands = (x, y)
        elif _sided(left, right, y) and _sided(right, left, x):
            operands = (y, x)
        else:
            return None
        kind = left.column(operands[0]).kind
        if kind not in _COUNTED_KINDS or right.column(operands[1]).kind != kind:
            return None
    else:
        return None
    rid = right.column(node.rid_ref).valid
    return operands, None if rid.all() else rid


def _sided(side: Batch, other: Batch, ref: str) -> bool:
    """Whether *ref* resolves on *side* and not on *other*."""
    return side.schema.has(ref) and not other.schema.has(ref)


def _counted_nest(
    left: Batch,
    right: Batch,
    node: NestLink,
    pairs: np.ndarray,
    live_pairs: np.ndarray,
) -> Batch:
    """The nest of an existential edge from its per-left-row pair counts.

    The pair index lists every matched left row's pairs in left order,
    then each unmatched left row once: ordering the left rows the same
    way gives every group the same first row and the same appearance
    order.  Each left row is one member whose rid is valid iff it has
    a live pair, and weighs ``max(pairs, 1)`` rows of the pair.  On a
    keyed edge each member is its own group."""

    def members():
        matched = pairs > 0
        at = np.concatenate(
            [np.flatnonzero(matched), np.flatnonzero(~matched)]
        )
        key = () if node.keyed else node.key
        batch = left.project(key).take(at).with_column(
            right.schema.column(node.rid_ref),
            Vector(
                KIND_INT, np.zeros(len(at), dtype=np.int64), live_pairs[at] > 0
            ),
        )
        groups = None
        if node.keyed:
            each = np.arange(len(at), dtype=np.int64)
            groups = each, each
        return batch, at, np.maximum(pairs, 1)[at], groups

    n = int(np.maximum(pairs, 1).sum())
    return _nest_link(node, n, members, left.project(node.by))


def _nest_link(
    node: NestLink,
    n: int,
    members: Callable[
        [],
        Tuple[
            Batch, Optional[np.ndarray], Optional[np.ndarray], Optional[Groups]
        ],
    ],
    n1: Batch,
) -> Batch:
    """The one nest + link body over *n* input rows.  ``members()``
    yields ``(batch, at, weights, groups)``: the rows the groups are
    judged on (the verdict's columns, and the key unless *groups* is
    given), the row of *n1* (``by`` projected) each one supplies as its
    group's output row (None: the same row), the input rows each stands
    for (None: one), and ``(ids, first)`` — the groups numbered in
    appearance order and each one's first row — or None to group the
    batch on the key."""
    by = node.by
    metrics = current_metrics()
    with op_span(
        "vec-nest-link",
        contract=CONTRACT_FILTERING,
        impl="sorted",
        pred=node.predicate.describe(),
        by=",".join(by),
        **({"mark": node.mark} if node.mark is not None else {}),
    ) as span:
        metrics.add("rows_nested", n)
        metrics.add("rows_sorted", n)
        if n and by:
            # the account models the logical operator: N1 wide, whatever
            # the key the groups are computed on (spill.est_nest_bytes)
            charge_rows(n, len(by), "nest grouping")
        batch, at, weights, groups = members()
        if groups is None:
            ids, n_groups = dense_group_ids(batch, node.key)
            rep = first_occurrences(ids, n_groups)
            order = np.argsort(rep, kind="stable")  # appearance order
        else:
            ids, rep = groups
            n_groups, order = len(rep), None
        metrics.add("linking_evals", n_groups)
        vt, vf = _group_verdict(batch, ids, n_groups, rep, node)
        if order is not None:
            rep, vt, vf = rep[order], vt[order], vf[order]
        out = select(n1, rep if at is None else at[rep], vt, vf, node)
        note_rows(span, len(out), n)
        if span is not None and n:
            span.set_max("peak_group", int(np.bincount(ids, weights).max()))
        metrics.add("rows_out", len(out))
    return out


def verdict_refs(batch: Batch, node: NestLink) -> List[str]:
    """The columns of *batch* a group verdict reads: the member rid,
    the linked attribute and the outer operand."""
    link = node.link
    return [
        ref
        for ref in dict.fromkeys(
            (node.rid_ref, link.inner_ref, link.outer_ref)
        )
        if ref is not None and batch.schema.has(ref)
    ]


def _group_verdict(
    batch: Batch,
    ids: np.ndarray,
    n_groups: int,
    rep: np.ndarray,
    node: NestLink,
):
    """Per-group three-valued verdict as ``(true, false)`` mask arrays."""
    if n_groups == 0:
        z = np.zeros(0, dtype=bool)
        return z, z.copy()
    predicate, link = node.predicate, node.link
    live = batch.column(node.rid_ref).valid
    q = predicate.quantifier
    if q in ("exists", "not_exists"):
        live_counts = np.bincount(ids[live], minlength=n_groups)
        t = live_counts > 0 if q == "exists" else live_counts == 0
        return t, ~t
    if q == "agg":
        values = (
            batch.column(link.inner_ref)
            if link.inner_ref is not None
            else None
        )
        agg = _group_aggregate(
            predicate.agg_func, ids, n_groups, live, values
        )
        if predicate.const is not None:
            lhs = Vector.from_scalar(predicate.const[0], n_groups)
        else:
            lhs = batch.column(link.outer_ref).take(rep)
        return compare_vectors(predicate.theta, lhs, agg)
    n = len(batch)
    lhs = (
        batch.column(link.outer_ref)
        if link.outer_ref is not None
        else Vector.nulls(KIND_INT, n)
    )
    rhs = (
        batch.column(link.inner_ref)
        if link.inner_ref is not None
        else Vector.nulls(KIND_INT, n)
    )
    t, f = compare_vectors(predicate.theta, lhs, rhs)
    some_true = np.bincount(ids[live & t], minlength=n_groups) > 0
    some_false = np.bincount(ids[live & f], minlength=n_groups) > 0
    some_unknown = (
        np.bincount(ids[live & ~t & ~f], minlength=n_groups) > 0
    )
    if q == "some":
        # disjunction: vacuously FALSE on the empty group
        return some_true, ~some_true & ~some_unknown
    # conjunction: vacuously TRUE on the empty group
    return ~some_false & ~some_unknown, some_false


def _group_aggregate(
    func: str,
    ids: np.ndarray,
    n_groups: int,
    live: np.ndarray,
    values: Optional[Vector],
) -> Vector:
    """One SQL aggregate per group, over the live members' non-NULL
    argument values (``count_star`` counts live rows).  Empty or all-NULL
    groups follow SQL: COUNT -> 0, everything else -> NULL."""
    counts = np.bincount(ids[live], minlength=n_groups).astype(np.int64)
    if func == "count_star":
        return Vector(KIND_INT, counts, np.ones(n_groups, dtype=bool))
    mask = (
        live & values.valid
        if values is not None
        else np.zeros(len(ids), dtype=bool)
    )
    arg_counts = np.bincount(ids[mask], minlength=n_groups).astype(np.int64)
    if func == "count":
        return Vector(KIND_INT, arg_counts, np.ones(n_groups, dtype=bool))
    present = arg_counts > 0
    if values is not None and values.kind == KIND_INT:
        agg = _int_aggregate(
            func, values.data[mask], ids[mask], n_groups, arg_counts
        )
        if agg is not None:
            return agg
    elif values is not None and values.kind == KIND_FLOAT:
        data = values.data[mask]
        gids = ids[mask]
        if func in ("sum", "avg"):
            sums = np.bincount(gids, weights=data, minlength=n_groups)
            if func == "avg":
                sums = sums / np.maximum(arg_counts, 1)
            return Vector(KIND_FLOAT, sums, present)
        if func in ("min", "max"):
            init = np.inf if func == "min" else -np.inf
            acc = np.full(n_groups, init, dtype=np.float64)
            ufunc = np.minimum if func == "min" else np.maximum
            ufunc.at(acc, gids, data)
            return Vector(KIND_FLOAT, np.where(present, acc, 0.0), present)
    # non-numeric argument kinds, and int sums and averages past what
    # int64 / float64 hold exactly: per-group Python aggregation
    vals = values.tolist_sql() if values is not None else []
    groups: list = [[] for _ in range(n_groups)]
    for i in np.flatnonzero(mask).tolist():
        groups[ids[i]].append(vals[i])
    return Vector.from_values(
        [
            _finish(func, groups[g], int(counts[g])) if groups[g] else NULL
            for g in range(n_groups)
        ]
    )


def _int_aggregate(
    func: str,
    data: np.ndarray,
    gids: np.ndarray,
    n_groups: int,
    arg_counts: np.ndarray,
) -> Optional[Vector]:
    """``min`` / ``max`` / ``sum`` / ``avg`` of int64 members, exact as
    the row engine's Python ints: min and max in int64; a sum in int64
    while ``n · max|x|`` stays below 2**63; an average from float64 sums
    while that bound stays below 2**53, where every partial sum is exact.
    None past those bounds (the caller aggregates per group in Python)."""
    present = arg_counts > 0
    if func in ("min", "max"):
        info = np.iinfo(np.int64)
        init, ufunc = (
            (info.max, np.minimum) if func == "min" else (info.min, np.maximum)
        )
        acc = np.full(n_groups, init, dtype=np.int64)
        ufunc.at(acc, gids, data)
        return Vector(KIND_INT, np.where(present, acc, 0), present)
    bound = (
        len(data) * max(-int(data.min()), int(data.max())) if len(data) else 0
    )
    if func == "sum" and bound < 2 ** 63:
        acc = np.zeros(n_groups, dtype=np.int64)
        np.add.at(acc, gids, data)
        return Vector(KIND_INT, acc, present)
    if func == "avg" and bound < FLOAT_EXACT_INT:
        sums = np.bincount(gids, weights=data, minlength=n_groups)
        return Vector(KIND_FLOAT, sums / np.maximum(arg_counts, 1), present)
    return None


def _pad_columns(
    batch: Batch, pad_refs: Sequence[str], fail: np.ndarray
) -> Batch:
    """NULL out the *pad_refs* columns of rows where *fail* is set —
    folded into a deferred column's selection, so none is read here."""
    cols = list(batch.columns)
    positions = sorted(set(batch.schema.indices_of(pad_refs)))
    masked = mask_columns([cols[i] for i in positions], ~fail)
    for i, column in zip(positions, masked):
        cols[i] = column
    return Batch(batch.schema, cols, len(batch))


def select(
    source: Batch, idx: Optional[np.ndarray], vt: np.ndarray, vf: np.ndarray,
    node,
) -> Batch:
    """The vector engine's one selection tail: output row ``i`` is row
    ``idx[i]`` of *source* (row ``i``, with no gather, when *idx* is
    None), judged by ``(vt[i], vf[i])``.  With ``node.mark`` keep every
    row and append the verdict as a boolean column; else keep the TRUE
    rows and drop (``node.strict``, σ) or NULL-pad ``node.pad_refs`` of
    (σ*) the others."""
    if node.strict and node.mark is None:
        return source.take(np.flatnonzero(vt) if idx is None else idx[vt])
    out = source if idx is None else source.take(idx)
    if node.mark is not None:
        return out.with_column(Column(node.mark), Vector(KIND_BOOL, vt, vt | vf))
    fail = ~vt
    if fail.any():
        out = _pad_columns(out, node.pad_refs, fail)
    current_metrics().add("null_padded_rows", int(fail.sum()))
    return out


# --------------------------------------------------------------------- #
# Uncorrelated (virtual Cartesian product) link
# --------------------------------------------------------------------- #


def uncorrelated_link(
    batch: Batch,
    sub: Batch,
    node: UncorrelatedLink,
) -> Batch:
    """Apply a shared-member-set linking predicate to every outer row."""
    mark = node.mark
    metrics = current_metrics()
    n = len(batch)
    with op_span(
        "vec-uncorrelated-link",
        contract=(
            CONTRACT_FILTERING
            if node.strict and mark is None
            else CONTRACT_PRESERVING
        ),
        pred=node.predicate.describe(),
        **({"mark": mark} if mark is not None else {}),
    ) as span:
        metrics.add("linking_evals", n)
        vt, vf = _uncorrelated_verdict(batch, sub, node)
        out = select(batch, None, vt, vf, node)
        note_rows(span, len(out), n)
        metrics.add("rows_out", len(out))
    return out


def _uncorrelated_verdict(batch: Batch, sub: Batch, node: UncorrelatedLink):
    """Per-outer-row three-valued verdict as ``(true, false)`` masks."""
    predicate, link = node.predicate, node.link
    n = len(batch)
    pk = sub.column(node.rid_ref)
    live_idx = np.flatnonzero(pk.valid)
    m = len(live_idx)
    q = predicate.quantifier
    if q == "exists":
        t = np.full(n, m > 0, dtype=bool)
        return t, ~t
    if q == "not_exists":
        t = np.full(n, m == 0, dtype=bool)
        return t, ~t
    if q == "agg":
        if link.inner_ref is not None:
            member_vals = sub.column(link.inner_ref).take(live_idx)
            arg = [v for v in member_vals.tolist_sql() if not is_null(v)]
        else:
            arg = []
        agg = _finish(predicate.agg_func, arg, m)
        lhs = (
            Vector.from_scalar(predicate.const[0], n)
            if predicate.const is not None
            else batch.column(link.outer_ref)
        )
        return compare_vectors(predicate.theta, lhs, Vector.from_scalar(agg, n))
    zeros = np.zeros(n, dtype=bool)
    ones = np.ones(n, dtype=bool)
    if m == 0:
        # SOME over ∅ is FALSE, ALL over ∅ vacuously TRUE
        if q == "all":
            return ones, zeros
        return zeros, ones
    lhs = (
        batch.column(link.outer_ref)
        if link.outer_ref is not None
        else Vector.nulls(KIND_INT, n)
    )
    values = (
        sub.column(link.inner_ref).take(live_idx)
        if link.inner_ref is not None
        else Vector.nulls(KIND_INT, m)
    )
    nn_idx = np.flatnonzero(values.valid)
    vals = values.take(nn_idx)
    has_null_member = len(nn_idx) < m
    if len(vals) and not _fast_comparable(lhs, vals):
        # mixed kinds: per-row set-predicate evaluation (row semantics,
        # including TypeError_ on incomparable values)
        members = [(v, 0) for v in values.tolist_sql()]
        t = zeros.copy()
        f = zeros.copy()
        for i, v in enumerate(lhs.tolist_sql()):
            r = predicate.evaluate(v, members)
            if r.is_true():
                t[i] = True
            elif (~r).is_true():
                f[i] = True
        return t, f
    # ∃ member with θ TRUE, and ∃ member with θ FALSE (i.e. ¬θ TRUE);
    # both require non-NULL operand pairs, so the masks are logic-neutral
    if len(vals) == 0:
        some_true = zeros
        some_false = zeros
    else:
        some_true = _exists_test(predicate.theta, lhs.data, vals.data) & lhs.valid
        some_false = (
            _exists_test(negate_op(predicate.theta), lhs.data, vals.data)
            & lhs.valid
        )
    # a NULL-touching comparison exists wherever the lhs is NULL or some
    # member is; it is UNKNOWN in Kleene logic and FALSE in two-valued mode
    nullish = ~lhs.valid | np.full(n, has_null_member, dtype=bool)
    if two_valued():
        if q == "some":
            return some_true, ~some_true
        f = some_false | nullish
        return ~f, f
    if q == "some":
        return some_true, ~some_true & ~nullish
    return ~some_false & ~nullish, some_false


def _exists_test(theta: str, lhs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``∃ v ∈ vals: lhs θ v`` for every lhs element (all values non-NULL)."""
    if theta == "=":
        return np.isin(lhs, vals)
    if theta in ("<>", "!="):
        distinct = np.unique(vals)
        if len(distinct) >= 2:
            return np.ones(len(lhs), dtype=bool)
        return lhs != distinct[0]
    if theta == "<":
        return lhs < _extreme(vals, max)
    if theta == "<=":
        return lhs <= _extreme(vals, max)
    if theta == ">":
        return lhs > _extreme(vals, min)
    if theta == ">=":
        return lhs >= _extreme(vals, min)
    raise AssertionError(f"unexpected linking theta {theta!r}")


def _extreme(vals: np.ndarray, pick: Callable):
    """``pick(vals)`` for *pick* ``max`` or ``min``.  numpy has no
    maximum/minimum loop for ``U`` arrays: a string member set's extreme
    is taken in code-point order, as ``sql_compare`` orders strings."""
    if vals.dtype.kind == "U":
        return pick(vals.tolist())
    return vals.max() if pick is max else vals.min()
