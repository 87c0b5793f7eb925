"""Linking selection and pseudo-selection (paper Definition 5).

Given a one-level nested relation (the output of ``nest``), a *linking
selection* applies a :class:`~repro.core.linking.SetPredicate` to every
nested tuple:

* **strict selection** σ_C keeps exactly the tuples where the predicate
  is TRUE (rows evaluating FALSE or UNKNOWN are discarded) — used for the
  outermost / last unfinished linking predicate, where failing simply
  means the outer tuple is not an answer;

* **pseudo-selection** σ*_{C,A} keeps *every* tuple, but pads the
  attributes in A with NULL on tuples that fail — used for linking
  predicates of *inner* blocks when negative/mixed linking predicates
  remain unfinished above.  Padding A (the failing block's attributes,
  crucially including its primary key) marks that inner tuple as "not in
  the subquery result" without deleting the enclosing outer tuple, which
  a later negative linking predicate may still need to qualify.  This is
  the mechanism that fixes the problem the paper describes for Query Q:
  tuples of S that fail the ALL test against T must *help* (not hurt)
  the R tuple pass its NOT IN test.

Both return a **flat** relation over the atomic attributes of the input
(the set-valued attribute is consumed), matching the paper's figures
where each linking selection is followed by a projection that drops the
nested attribute.  Both are :func:`nested_selection`, whose third
reading of the verdict is the *mark* a link under OR/NOT leaves for its
block's residual.  :func:`select` is the row engine's one tail for σ, σ*
and the mark; the nested selection, the uncorrelated link and the
disjunctive residual (:mod:`repro.core.backend`) only feed it verdicts.

Two §4.2 refinements fuse the nest *into* the selection and therefore
take flat input:

* :func:`fused_linking_selection` (§4.2.1-2) — consecutive nests group
  by a *prefix* of the previous nesting attributes, so one sort of the
  fully joined relation by the block rids along the path serves all of
  them; every linking predicate is then computed in a single scan with
  group-boundary detection, innermost first.  Failing inner tuples
  contribute *dead* members (the pseudo-selection padding happens
  implicitly) and the outermost predicate is strict.
* :func:`pushdown_linking_selection` (§4.2.4) —
  υ_{B},{C}(R ⋈_{A=B} S) = R ⋈ υ_{B},{C}(S) when the nesting attribute
  is the equality join attribute: nest the inner relation by its
  correlated attributes *before* the join and probe one group per outer
  tuple, avoiding the wide intermediate result.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from ..engine.operators.basic import checkpointed
from ..engine.metrics import current_metrics
from ..engine.trace import (
    CONTRACT_FILTERING,
    CONTRACT_PRESERVING,
    note_rows,
    op_span,
)
from ..engine.relation import Relation, Row, projector
from ..engine.schema import Column, Schema
from ..engine.types import (
    NULL,
    TRUE,
    SqlValue,
    TriBool,
    bind_join_key,
    tri_value,
)
from .linking import SetPredicate
from .nest import nest
from .nested import NestedRelation, SubSchema
from .query_tree import FusedLink, PushdownLink


def judge(
    rows: Iterable[Row], verdict: Callable[[Row], Tuple[Row, TriBool]]
) -> Iterator[Tuple[Row, TriBool]]:
    """``verdict(row)`` — an output row and its linking verdict — for
    each of *rows*, charging ``linking_evals`` once for the rows reached
    (also when an incomparable pair ends the scan early)."""
    evals = 0
    try:
        for row in checkpointed(rows):
            evals += 1
            yield verdict(row)
    finally:
        if evals:
            current_metrics().add("linking_evals", evals)


def select(
    name: str,
    schema: Schema,
    verdicts: Iterable[Tuple[Row, TriBool]],
    n_in: int,
    strict: bool,
    pad_refs: Sequence[str],
    mark_ref: Optional[str],
    **attrs,
) -> Relation:
    """The row engine's one selection tail, over ``(row, verdict)``
    pairs of *schema*: with *mark_ref* keep every row and append the
    verdict as that column; else keep the TRUE rows and drop (*strict*,
    σ) or NULL-pad *pad_refs* of (σ*) the others.  One span *name* with
    *attrs*, filtering iff strict and unmarked; *n_in* is its rows_in."""
    marked = mark_ref is not None
    if marked:
        schema = Schema(tuple(schema.columns) + (Column(mark_ref),))
    padding = not (strict or marked)
    pads = set(schema.indices_of(pad_refs)) if padding else ()
    out_rows: List[Row] = []
    padded = 0
    with op_span(
        name,
        contract=CONTRACT_PRESERVING if padding or marked else CONTRACT_FILTERING,
        **attrs,
    ) as span:
        try:
            if marked:
                out_rows = [row + (tri_value(v),) for row, v in verdicts]
            elif strict:
                out_rows = [row for row, v in verdicts if v is TRUE]
            else:
                for row, verdict in verdicts:
                    if verdict is not TRUE:
                        padded += 1
                        row = tuple(
                            NULL if i in pads else v for i, v in enumerate(row)
                        )
                    out_rows.append(row)
        finally:
            if padded:
                current_metrics().add("null_padded_rows", padded)
        note_rows(span, len(out_rows), n_in)
    return Relation.adopt(schema, out_rows)


def nested_selection(
    nested: NestedRelation,
    predicate: SetPredicate,
    linking_ref: Optional[str],
    linked_ref: Optional[str],
    pk_ref: str,
    strict: bool = True,
    pad_refs: Sequence[str] = (),
    mark_ref: Optional[str] = None,
    set_name: str = "_nested",
) -> Relation:
    """The linking predicate over every tuple of a nested relation, as σ
    (*strict*), σ* (padding *pad_refs*) or the mark column *mark_ref*.

    *linking_ref* is the linking attribute (an atomic attribute of the
    nested relation; None for EXISTS/NOT EXISTS).  *linked_ref* is the
    linked attribute inside the set; *pk_ref* the inner block's primary
    key inside the set (NULL pk = empty marker).
    """
    components = nested.schema.components
    set_pos = nested.schema.index_of(set_name)
    if not isinstance(components[set_pos], SubSchema):
        raise SchemaError(f"{set_name!r} is not a set-valued attribute")
    sub_flat = components[set_pos].schema.to_flat()
    linked_pos = sub_flat.index_of(linked_ref) if linked_ref is not None else None
    pk_pos = sub_flat.index_of(pk_ref)
    atomic = [i for i in range(len(components)) if i != set_pos]
    if any(isinstance(components[i], SubSchema) for i in atomic):
        raise SchemaError(
            "linking selection expects exactly one set-valued attribute "
            "at the top level"
        )
    out_schema = Schema([components[i] for i in atomic])  # type: ignore[misc]
    linking_pos = (
        out_schema.index_of(linking_ref) if linking_ref is not None else None
    )
    holds = predicate.bind()
    flatten = projector(atomic)

    def verdict(row: Row) -> Tuple[Row, TriBool]:
        flat = flatten(row)
        return flat, holds(
            flat[linking_pos] if linking_pos is not None else NULL,
            _members(row[set_pos], linked_pos, pk_pos),
        )

    attrs = {"pred": predicate.describe()}
    if mark_ref is not None:
        name, attrs["mark"] = "mark-selection", mark_ref
    elif strict:
        name = "linking-selection"
    else:
        name, attrs["pads"] = "pseudo-selection", ",".join(pad_refs)
    return select(
        name, out_schema, judge(nested.rows, verdict), len(nested.rows),
        strict, pad_refs, mark_ref, **attrs,
    )


def linking_selection(
    nested: NestedRelation,
    predicate: SetPredicate,
    linking_ref: Optional[str],
    linked_ref: Optional[str],
    pk_ref: str,
    set_name: str = "_nested",
) -> Relation:
    """Strict σ_C: keep tuples whose linking predicate is TRUE."""
    return nested_selection(
        nested, predicate, linking_ref, linked_ref, pk_ref, set_name=set_name
    )


def pseudo_selection(
    nested: NestedRelation,
    predicate: SetPredicate,
    linking_ref: Optional[str],
    linked_ref: Optional[str],
    pk_ref: str,
    pad_refs: Sequence[str],
    set_name: str = "_nested",
) -> Relation:
    """σ*_{C,A}: keep all tuples; pad attributes in *pad_refs* on failure.

    Failing tuples keep their other attributes intact — in particular the
    enclosing blocks' attributes — so outer tuples survive for later
    (negative) linking predicates; the padded primary key inside
    *pad_refs* marks this inner tuple as absent.
    """
    return nested_selection(
        nested, predicate, linking_ref, linked_ref, pk_ref, strict=False,
        pad_refs=pad_refs, set_name=set_name,
    )


def fused_linking_selection(joined: Relation, node: FusedLink) -> Relation:
    """Sort once by the rid chain, then evaluate all linking predicates in
    one scan (the fused nest + linking selection pipeline, §4.2.1-2).

    ``node.rid_refs`` are the rids of the joined blocks outermost first;
    ``links[l]`` / ``predicates[l]`` belong to block l+1.  Level l
    (0-based, outermost = 0) accumulates members for the linking
    predicate of block l+1.  When a level-l group closes, the link of
    block l+1 is evaluated for the group's block-(l) tuple; the outcome
    (dead/alive) propagates upward as a member of level l-1.
    """
    with op_span(
        "single-pass-link",
        contract=CONTRACT_FILTERING,
        levels=len(node.links),
    ) as span:
        out = _single_pass_scan(joined, node)
        note_rows(span, len(out), len(joined.rows))
    return Relation.adopt(joined.schema, out)


def _single_pass_scan(joined: Relation, node: FusedLink) -> List[Row]:
    rid_refs, links = node.rid_refs, node.links
    metrics = current_metrics()
    k = len(rid_refs)
    schema = joined.schema
    rid_pos = [schema.index_of(r) for r in rid_refs]
    lhs_pos = [
        schema.index_of(l.outer_ref) if l.outer_ref is not None else None
        for l in links
    ]
    inner_pos = [
        schema.index_of(l.inner_ref) if l.inner_ref is not None else None
        for l in links
    ]
    holds = [predicate.bind() for predicate in node.predicates]

    # One key per row, computed once: the rids of every block but the
    # deepest, outermost first.  A rid is a row number of its T_i or the
    # NULL an outer join / σ* padded it with, so -1 stands for NULL and
    # plain ints sort NULLs-first and compare for the group boundaries.
    rows = joined.rows
    keys = list(zip(*(
        [-1 if rid is NULL else rid for rid in map(itemgetter(p), rows)]
        for p in rid_pos[:-1]
    )))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    metrics.add("rows_sorted", len(rows))

    out: List[Row] = []
    # members[l]: accumulated (value, pk) pairs for the predicate of
    # block l+1, within the current level-l group.
    members: List[List[tuple]] = [[] for _ in range(k - 1)]
    nested = evals = 0

    def close_level(level: int, row: Row) -> None:
        """Evaluate link of block level+1 for the group that just ended at
        *level*; push the outcome as a member into level-1 (or emit)."""
        lhs = row[lhs_pos[level]] if lhs_pos[level] is not None else NULL
        passed = holds[level](lhs, members[level]) is TRUE
        members[level] = []
        block_rid = row[rid_pos[level]]
        alive = passed and block_rid is not NULL
        if level == 0:
            if alive:
                out.append(row)
            return
        value = (
            row[inner_pos[level - 1]]
            if inner_pos[level - 1] is not None
            else NULL
        )
        members[level - 1].append((value, block_rid if alive else NULL))

    deepest_rid, deepest_value = rid_pos[-1], inner_pos[-1]
    current: Optional[Row] = None  # previous row
    current_key: tuple = ()
    try:
        for n, i in enumerate(checkpointed(order), 1):
            nested = n
            row, key = rows[i], keys[i]
            if key != current_key and current is not None:
                # close every level from the deepest up to the
                # shallowest one whose rid changed
                boundary = 0
                while key[boundary] == current_key[boundary]:
                    boundary += 1
                for level in range(k - 2, boundary - 1, -1):
                    evals += 1
                    close_level(level, current)
            # accumulate the deepest block's tuple as a member of level k-2
            members[k - 2].append(
                (
                    row[deepest_value] if deepest_value is not None else NULL,
                    row[deepest_rid],
                )
            )
            current, current_key = row, key
        if current is not None:
            for level in range(k - 2, -1, -1):
                evals += 1
                close_level(level, current)
    finally:
        # once per scan; a scan that a timeout or an incomparable pair
        # ends early still charges what it reached
        if nested:
            metrics.add("rows_nested", nested)
        if evals:
            metrics.add("linking_evals", evals)
    return out


def pushdown_linking_selection(
    parent_rel: Relation, child_rel: Relation, node: PushdownLink
) -> Relation:
    """Nest the child by its correlated attributes, then probe per parent
    tuple and apply the linking selection (§4.2.4) — strict: the caller
    evaluates the child first, so the parent is the outermost block of
    everything still unfinished."""
    with op_span(
        "nest-pushdown-link",
        kind="phase",
        contract=CONTRACT_FILTERING,
        pred=node.predicate.describe(),
    ) as span:
        out_rows = _pushdown_probe(parent_rel, child_rel, node)
        note_rows(span, len(out_rows), len(parent_rel.rows))
    return Relation.adopt(parent_rel.schema, out_rows)


def _pushdown_probe(
    parent_rel: Relation, child_rel: Relation, node: PushdownLink
) -> List[Row]:
    link = node.link
    metrics = current_metrics()
    # Distinct correlations may bind the same inner column (``s.b = r.a
    # AND s.b = r.k``); nest by each inner column once, and when probing
    # require every outer value bound to that column to agree.
    unique_inner: List[str] = []
    outer_groups: List[List[str]] = []
    for o, i in zip(node.outer_keys, node.inner_keys):
        if i in unique_inner:
            outer_groups[unique_inner.index(i)].append(o)
        else:
            unique_inner.append(i)
            outer_groups.append([o])
    # The linked attribute may itself be a correlation key (e.g.
    # ``... = SOME (select s.b ... where s.b = r.a)``): it then lives in
    # the nesting attributes, not the nested set — nest demands the two
    # be disjoint — and every member of a group shares its key value.
    nest_keep = [r for r in node.keep if r not in unique_inner]
    nested = nest(child_rel, unique_inner, nest_keep)
    group_pos = nested.schema.index_of("_nested")
    by_positions = [nested.schema.index_of(r) for r in unique_inner]
    sub_schema = nested.schema.subschema("_nested").schema.to_flat()
    val_pos = None
    val_key_idx = None
    if link.inner_ref is not None:
        if link.inner_ref in unique_inner:
            val_key_idx = unique_inner.index(link.inner_ref)
        else:
            val_pos = sub_schema.index_of(link.inner_ref)
    pk_pos = sub_schema.index_of(node.rid_ref)

    group_key_of = bind_join_key(by_positions)
    groups: dict = {}
    for row in nested.rows:
        key = group_key_of(row)
        if key is None:
            # a NULL join attribute: no outer tuple probes this group
            continue
        if val_key_idx is not None:
            shared = row[by_positions[val_key_idx]]
            groups[key] = [(shared, m[pk_pos]) for m in row[group_pos]]
        else:
            groups[key] = _members(row[group_pos], val_pos, pk_pos)

    outer_positions = [
        [parent_rel.schema.index_of(o) for o in group] for group in outer_groups
    ]
    lhs_pos = (
        parent_rel.schema.index_of(link.outer_ref)
        if link.outer_ref is not None
        else None
    )
    # the probe key reads the first outer column bound to each inner
    # column; the others only have to agree with it
    probe_key_of = bind_join_key([plist[0] for plist in outer_positions])
    agreeing = [plist for plist in outer_positions if len(plist) > 1]
    holds = node.predicate.bind()
    out_rows = []
    probed = 0
    try:
        for n, row in enumerate(checkpointed(parent_rel.rows), 1):
            probed = n
            key = probe_key_of(row)
            if key is not None and any(
                row[p] != row[plist[0]] for plist in agreeing for p in plist[1:]
            ):
                key = None
            members = groups.get(key, ()) if key is not None else ()
            lhs = row[lhs_pos] if lhs_pos is not None else NULL
            if holds(lhs, members) is TRUE:
                out_rows.append(row)
    finally:
        if probed:
            metrics.add("hash_probes", probed)
            metrics.add("linking_evals", probed)
    return out_rows


def _members(
    group: Sequence[tuple], linked_pos: Optional[int], pk_pos: int
) -> Sequence[Tuple[SqlValue, SqlValue]]:
    """Extract (linked value, pk value) pairs from a nested group."""
    if linked_pos is None:
        return [(NULL, member[pk_pos]) for member in group]
    if linked_pos == 0 and pk_pos == 1 and group and len(group[0]) == 2:
        # the driver's nest keeps exactly (linked attribute, rid)
        return group
    return [(member[linked_pos], member[pk_pos]) for member in group]
