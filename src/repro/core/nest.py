"""The nest and unnest operators (paper Definition 3).

``nest(r, by=N1, keep=N2)`` — written υ_{N1,N2}(r) in the paper — groups
the rows of a flat relation by the *nesting attributes* N1 and collects,
for each group, the set of N2-projections as a set-valued attribute.  The
definition differs from the traditional one in two ways the paper calls
out explicitly:

* both N1 and N2 are given (traditionally N1 is implied as the
  complement), and the result carries an **implicit projection** onto
  N1 ∪ N2 — attributes outside both lists are dropped;
* this highlights the connection between nesting and grouping, which is
  what makes the single-pass implementations possible.

Two physical implementations are provided, mirroring the paper's
"the two obvious options to implement nest are sorting and hashing":

* :func:`nest` (hash-based) — one pass, hash table on the N1 key;
* :func:`nest_sorted` — sorts by N1 first, then emits groups in one
  scan (this is what the stored-procedure implementation in Section 5.1
  does, and what the pipelined optimized variant builds on).

``unnest`` is the inverse on relations produced by nest with a key among
N1 (paper: "The unnest operator can be defined as usual to be the inverse
of nest").  Unnesting a row whose set is empty produces nothing, so
nest/unnest round-trips only for rows with non-empty groups — tests pin
exactly this contract.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchemaError
from ..engine.governor import charge_rows, checkpoint
from ..engine.metrics import current_metrics
from ..engine.operators.basic import checkpointed
from ..engine.trace import CONTRACT_FILTERING, note_rows, op_span
from ..engine.relation import Relation, Row
from ..engine.schema import Column, Schema
from ..engine.types import row_group_key, row_sort_key
from .nested import NestedRelation, NestedSchema, SubSchema

DEFAULT_SET_NAME = "_nested"


def _plan(
    relation: Relation, by: Sequence[str], keep: Sequence[str], set_name: str
) -> Tuple[Tuple[int, ...], Tuple[int, ...], NestedSchema, Schema]:
    """Resolve positions and build the output schemas for a nest."""
    schema = relation.schema
    by_idx = schema.indices_of(by)
    keep_idx = schema.indices_of(keep)
    if set(by_idx) & set(keep_idx):
        raise SchemaError("nest: nesting and nested attribute sets must be disjoint")
    sub_schema = Schema([schema.columns[i] for i in keep_idx])
    out_schema = NestedSchema(
        [schema.columns[i] for i in by_idx]
        + [SubSchema(set_name, NestedSchema.flat(sub_schema))]
    )
    return by_idx, keep_idx, out_schema, sub_schema


def nest(
    relation: Relation,
    by: Sequence[str],
    keep: Sequence[str],
    set_name: str = DEFAULT_SET_NAME,
) -> NestedRelation:
    """Hash-based υ_{by,keep}: group rows by *by*, collect *keep* tuples.

    Group members are deduplicated (the nested value is a *set* of
    tuples, Definition 3); groups preserve first-seen order so results
    are deterministic.
    """
    with op_span(
        "nest", contract=CONTRACT_FILTERING, impl="hash", by=",".join(by)
    ) as span:
        checkpoint("nest")
        charge_rows(
            len(relation.rows), len(by) + len(keep), "nest grouping"
        )
        result = _nest_hash(relation, by, keep, set_name)
        _note_nest(span, relation, result)
    return result


def _note_nest(span, relation: Relation, result: NestedRelation) -> None:
    """Record row counts and the peak group cardinality on a nest span."""
    note_rows(span, len(result.rows), len(relation.rows))
    if span is not None and result.rows:
        span.set_max("peak_group", max(len(r[-1]) for r in result.rows))


def _nest_hash(
    relation: Relation,
    by: Sequence[str],
    keep: Sequence[str],
    set_name: str,
) -> NestedRelation:
    by_idx, keep_idx, out_schema, _sub = _plan(relation, by, keep, set_name)
    groups: Dict[tuple, List[Row]] = {}
    member_seen: Dict[tuple, set] = {}
    reps: Dict[tuple, Row] = {}
    order: List[tuple] = []
    for row in checkpointed(relation.rows):
        key = row_group_key(tuple(row[i] for i in by_idx))
        member = tuple(row[i] for i in keep_idx)
        if key not in groups:
            groups[key] = []
            member_seen[key] = set()
            reps[key] = row
            order.append(key)
        mkey = row_group_key(member)
        if mkey not in member_seen[key]:
            member_seen[key].add(mkey)
            groups[key].append(member)
    if relation.rows:
        current_metrics().add("rows_nested", len(relation.rows))
    rows = []
    for key in checkpointed(order):
        rep = reps[key]
        prefix = tuple(rep[i] for i in by_idx)
        rows.append(prefix + (tuple(groups[key]),))
    return NestedRelation.adopt(out_schema, rows)


def nest_sorted(
    relation: Relation,
    by: Sequence[str],
    keep: Sequence[str],
    set_name: str = DEFAULT_SET_NAME,
) -> NestedRelation:
    """Sort-based υ_{by,keep}: sort on *by*, then emit groups in one scan.

    Equivalent to :func:`nest` up to group order (groups appear in sorted
    key order).  This is the implementation the paper's experiments used
    inside stored procedures.
    """
    with op_span(
        "nest", contract=CONTRACT_FILTERING, impl="sorted", by=",".join(by)
    ) as span:
        checkpoint("nest")
        charge_rows(
            len(relation.rows), len(by) + len(keep), "nest grouping"
        )
        result = _nest_sorted(relation, by, keep, set_name)
        _note_nest(span, relation, result)
    return result


def _nest_sorted(
    relation: Relation,
    by: Sequence[str],
    keep: Sequence[str],
    set_name: str,
) -> NestedRelation:
    by_idx, keep_idx, out_schema, _sub = _plan(relation, by, keep, set_name)
    metrics = current_metrics()
    rows = sorted(
        relation.rows, key=lambda r: row_sort_key(tuple(r[i] for i in by_idx))
    )
    metrics.add("rows_sorted", len(rows))
    out: List[tuple] = []
    current_key: Optional[tuple] = None
    members: List[Row] = []
    seen: set = set()
    prefix: Row = ()
    for row in checkpointed(rows):
        key = row_group_key(tuple(row[i] for i in by_idx))
        if key != current_key:
            if current_key is not None:
                out.append(prefix + (tuple(members),))
            current_key = key
            prefix = tuple(row[i] for i in by_idx)
            members = []
            seen = set()
        member = tuple(row[i] for i in keep_idx)
        mkey = row_group_key(member)
        if mkey not in seen:
            seen.add(mkey)
            members.append(member)
    if rows:
        metrics.add("rows_nested", len(rows))
    if current_key is not None:
        out.append(prefix + (tuple(members),))
    return NestedRelation.adopt(out_schema, out)


def unnest(nested: NestedRelation, set_name: str = DEFAULT_SET_NAME) -> Relation:
    """μ: flatten one set-valued attribute back into rows.

    Rows whose set is empty vanish (classical unnest semantics — this is
    precisely the information loss that outer joins + PK-null padding
    exist to prevent in the paper's pipeline).
    """
    sub_pos = nested.schema.index_of(set_name)
    sub = nested.schema.components[sub_pos]
    if not isinstance(sub, SubSchema):
        raise SchemaError(f"{set_name!r} is not a set-valued attribute")
    if sub.schema.depth != 0:
        raise SchemaError("unnest of non-flat subschema is not supported")
    atomic = [
        (i, c)
        for i, c in enumerate(nested.schema.components)
        if i != sub_pos
    ]
    for _i, c in atomic:
        if isinstance(c, SubSchema):
            raise SchemaError("unnest with multiple set attributes is ambiguous; "
                              "unnest them one at a time")
    out_schema = Schema(
        [c for _i, c in atomic] + list(sub.schema.atomic_columns)
    )
    metrics = current_metrics()
    rows: List[Row] = []
    with op_span("unnest", set=set_name) as span:
        for row in nested.rows:
            prefix = tuple(row[i] for i, _c in atomic)
            for member in row[sub_pos]:
                metrics.add("rows_unnested")
                rows.append(prefix + tuple(member))
        note_rows(span, len(rows), len(nested.rows))
    return Relation.adopt(out_schema, rows)
