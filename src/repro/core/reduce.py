"""Block reduction: T_i = σ_Δi(R_i) (Algorithm 1, step one).

Each query block is reduced to a single relation by applying every
predicate in its WHERE clause *except* linking and correlated predicates
— selections are pushed onto base tables and the block's own tables are
joined (the paper assumes all relations in a block are connected, i.e. no
Cartesian product; we fall back to a cross join if they are not).

Every reduced block gets a synthetic **row id** column ``_rid<i>``: a
unique, non-null integer per tuple of T_i.  The paper instead assumes
"each relation has a unique non-null attribute served as a primary key";
a synthetic rid satisfies that assumption uniformly (also for blocks
joining several tables, where no single base key is unique) and serves
as the emptiness marker after outer joins and the grouping anchor for
``nest``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PlanError
from ..engine.catalog import Database
from ..engine.expressions import (
    Col,
    Comparison,
    Expr,
    bind_truth,
    conjoin,
    split_conjuncts,
)
from ..engine.governor import checkpoint
from ..engine.operators import filter_relation, hash_join, nested_loop_join
from ..engine.trace import note_rows, op_span
from ..engine.relation import Relation
from ..engine.schema import Column, Schema
from ..engine.types import NULL
from .blocks import NestedQuery, QueryBlock


@dataclass
class ReducedBlock:
    """A block's reduced relation T_i plus bookkeeping for the pipeline."""

    block: QueryBlock
    relation: Relation
    #: synthetic unique non-null key of T_i (qualified name)
    rid_ref: str

    @property
    def index(self) -> int:
        return self.block.index


def rid_name(block: QueryBlock) -> str:
    return f"_rid{block.index}"


def reduce_block(block: QueryBlock, db: Database) -> ReducedBlock:
    """Compute T_i = σ_Δi(R_i) and attach the synthetic rid column.

    A grouped subquery block (``GROUP BY`` / ``HAVING``; necessarily
    uncorrelated and childless, see block validation) is aggregated here
    as well: T_i becomes one row per qualifying group over the group-by
    columns, so every downstream strategy sees the grouped relation
    uniformly.
    """
    step = reduce_step(block)
    return ReducedBlock(block, reduce_relation(step, db), step.rid)


def reduce_all(query: NestedQuery, db: Database) -> Dict[int, ReducedBlock]:
    """Reduce every block of the query, keyed by block index."""
    return {b.index: reduce_block(b, db) for b in query.root.walk()}


@dataclass(frozen=True)
class ReduceStep:
    """Step one for one block, decided from the query alone: the block's
    join plan and its rid.  Algorithm 1 builds these once per plan and
    memoizes them with the tree."""

    block: QueryBlock
    join: BlockJoinPlan
    #: the synthetic rid column of T_i (``_rid<i>``)
    rid: str
    #: a GROUP BY / HAVING subquery block, aggregated after the join
    grouped: bool


def reduce_step(block: QueryBlock) -> ReduceStep:
    return ReduceStep(
        block, plan_block_join(block), rid_name(block),
        _is_grouped_subquery(block),
    )


def reduce_relation(step: ReduceStep, db: Database) -> Relation:
    """*step*'s T_i on the row engine, from the base tables, under its
    ``reduce[T_i]`` span.

    This reads no memo: the baselines that call it are cache-oblivious
    by construction.  The row backend reads T_i from the session's
    reduce memo instead (:meth:`repro.core.backend.RowBackend.reduce_all`).
    """
    block = step.block
    with op_span(
        f"reduce[T{block.index}]",
        kind="phase",
        tables=",".join(block.alias_list),
    ) as span:
        checkpoint("reduce")
        joined = execute_join_plan(step.join, db)
        if step.grouped:
            joined = group_rows(block, joined)
        reduced = with_rid(joined, step.rid)
        note_rows(span, len(reduced.rows))
    return reduced


def group_rows(block: QueryBlock, joined: Relation) -> Relation:
    """A grouped subquery block's T_i before its rid: *joined*
    aggregated, one row per qualifying group over the group-by columns
    (the linked attribute is one; the aggregates only feed HAVING)."""
    return group_block(block, joined).project(block.group_by)


def with_rid(joined: Relation, rid: str, cls=Relation) -> Relation:
    """*joined* with the rid column *rid* numbering its rows, as a new
    *cls* (:class:`Relation` or one that keeps its builds)."""
    schema = Schema(joined.schema.columns + (Column(rid, not_null=True),))
    return cls.adopt(schema, [row + (i,) for i, row in enumerate(joined.rows)])


def _is_grouped_subquery(block: QueryBlock) -> bool:
    """Whether *block* is a subquery carrying GROUP BY / HAVING.

    Root-level grouping is *not* reduced here — it runs as a planner
    post-pass over the strategy result, after linking predicates.
    """
    return block.link is not None and bool(
        block.group_by or block.aggregates or block.having is not None
    )


def group_block(block: QueryBlock, rel: Relation) -> Relation:
    """*block*'s GROUP BY, aggregates and HAVING over *rel*: group,
    aggregate, keep the groups whose HAVING is TRUE.  The caller
    projects.

    A global aggregate over zero rows still yields one row (COUNT
    becomes 0, every other aggregate NULL), as in SQL.  Only a root
    block reaches that rule: the analyzer requires a grouped subquery's
    linked attribute to be a GROUP BY column.
    """
    from ..engine.operators.aggregate import AggSpec, GroupAggregate

    aggs = [AggSpec(a.func, a.arg, name=a.name) for a in block.aggregates]
    grouped = GroupAggregate(rel, list(block.group_by), aggs).run()
    if not block.group_by and not grouped.rows:
        grouped = Relation.adopt(
            grouped.schema,
            [
                tuple(
                    0 if a.func in ("count", "count_star") else NULL
                    for a in aggs
                )
            ],
        )
    if block.having is not None:
        holds = bind_truth(block.having, grouped.schema)
        rows = [row for row in grouped.rows if holds(row).is_true()]
        grouped = Relation.adopt(grouped.schema, rows)
    return grouped


@dataclass(frozen=True)
class JoinStep:
    """One step of a block's join plan: bring *alias* into the result.

    ``left_keys``/``right_keys`` are the hash-join equality keys (empty
    means no connecting equality was found: cross/nested-loop join);
    ``residual`` is the conjunction of predicates that become fully
    resolvable with this step, applied on the join output.
    """

    alias: str
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    residual: Optional[Expr]


@dataclass(frozen=True)
class BlockJoinPlan:
    """The purely syntactic plan for T_i = σ_Δi(R_i).

    Both execution backends (row iterators and columnar batches) execute
    this same plan, so predicate placement and join order — and therefore
    semantics — cannot drift between them.
    """

    #: scan order (the block's FROM order); ``aliases[0]`` seeds the join
    aliases: Tuple[str, ...]
    #: alias -> base table name
    table_names: Tuple[Tuple[str, str], ...]
    #: alias -> pushed-down single-table predicate (or None)
    scan_filters: Tuple[Tuple[str, Optional[Expr]], ...]
    #: greedy equality-first join order over ``aliases[1:]``
    steps: Tuple[JoinStep, ...]
    #: predicates never fully resolvable until the end (safety net)
    final_residual: Optional[Expr]

    def scan_filter(self, alias: str) -> Optional[Expr]:
        return dict(self.scan_filters)[alias]

    @cached_property
    def key(self) -> str:
        """``repr(self)``, computed once: the plan's part of its
        image's key in the reduce memo."""
        return repr(self)

    @property
    def is_bare_scan(self) -> bool:
        """One table, no predicate: T_i is the base relation itself."""
        return (
            not self.steps
            and self.final_residual is None
            and self.scan_filters[0][1] is None
        )


def plan_block_join(block: QueryBlock) -> BlockJoinPlan:
    """Plan the joins for the local predicate Δ_i of *block*.

    Single-table conjuncts are pushed below the joins; equality conjuncts
    across two tables become hash-join keys; everything else is applied
    as a residual filter once all referenced tables are in.
    """
    conjuncts = (
        split_conjuncts(block.local_predicate)
        if block.local_predicate is not None
        else []
    )
    aliases = block.alias_list

    def owner_tables(expr: Expr) -> Set[str]:
        owners = set()
        for ref in expr.columns():
            table, _, _name = ref.rpartition(".")
            owners.add(table)
        return owners

    # Classify conjuncts by the set of aliases they touch.
    per_table: Dict[str, List[Expr]] = {a: [] for a in aliases}
    multi: List[Expr] = []
    for conj in conjuncts:
        owners = owner_tables(conj)
        unknown = owners - set(aliases) - {""}
        if unknown:
            raise PlanError(
                f"local predicate {conj!r} of block {block.index} references "
                f"tables outside the block: {sorted(unknown)}"
            )
        real_owners = owners & set(aliases)
        if len(real_owners) <= 1:
            target = next(iter(real_owners), aliases[0])
            per_table[target].append(conj)
        else:
            multi.append(conj)

    joined_aliases = {aliases[0]}
    remaining = list(aliases[1:])
    pending = list(multi)
    steps: List[JoinStep] = []
    while remaining:
        # Prefer a table connected to the current result by an equality.
        pick: Optional[str] = None
        for alias in remaining:
            if _equi_keys(pending, joined_aliases, alias):
                pick = alias
                break
        if pick is None:
            pick = remaining[0]
        remaining.remove(pick)
        equi = _equi_keys(pending, joined_aliases, pick)
        newly_resolvable = [
            p
            for p in pending
            if owner_tables(p) <= (joined_aliases | {pick})
            and p not in [e[2] for e in equi]
        ]
        residual = conjoin(newly_resolvable) if newly_resolvable else None
        steps.append(
            JoinStep(
                alias=pick,
                left_keys=tuple(e[0] for e in equi),
                right_keys=tuple(e[1] for e in equi),
                residual=residual,
            )
        )
        joined_aliases.add(pick)
        pending = [p for p in pending if p not in newly_resolvable and p not in [e[2] for e in equi]]
    return BlockJoinPlan(
        aliases=tuple(aliases),
        table_names=tuple((a, block.tables[a]) for a in aliases),
        scan_filters=tuple(
            (a, conjoin(per_table[a]) if per_table[a] else None)
            for a in aliases
        ),
        steps=tuple(steps),
        final_residual=conjoin(pending) if pending else None,
    )


def execute_join_plan(plan: BlockJoinPlan, db: Database) -> Relation:
    """Execute a block's join plan with the row operators."""
    # Scan + filter each table under its alias.
    parts: Dict[str, Relation] = {}
    for alias, table_name in plan.table_names:
        rel = db.relation(table_name)
        if alias != table_name:
            rel = rel.rename_table(alias)
        pred = plan.scan_filter(alias)
        if pred is not None:
            rel = filter_relation(rel, pred)
        parts[alias] = rel

    current = parts[plan.aliases[0]]
    for step in plan.steps:
        if step.left_keys:
            current = hash_join(
                current,
                parts[step.alias],
                list(step.left_keys),
                list(step.right_keys),
                step.residual,
            )
        else:
            current = nested_loop_join(
                current, parts[step.alias], predicate=step.residual
            )
    if plan.final_residual is not None:
        current = filter_relation(current, plan.final_residual)
    return current


def _equi_keys(
    pending: Sequence[Expr], joined: Set[str], new_alias: str
) -> List[Tuple[str, str, Expr]]:
    """Equality conjuncts usable as hash keys between *joined* and *new_alias*.

    Returns (left_ref_in_joined, right_ref_in_new, original_expr) triples.
    """
    out: List[Tuple[str, str, Expr]] = []
    for p in pending:
        if not isinstance(p, Comparison) or p.op != "=":
            continue
        if not isinstance(p.left, Col) or not isinstance(p.right, Col):
            continue
        lt = p.left.ref.rpartition(".")[0]
        rt = p.right.ref.rpartition(".")[0]
        if lt in joined and rt == new_alias:
            out.append((p.left.ref, p.right.ref, p))
        elif rt in joined and lt == new_alias:
            out.append((p.right.ref, p.left.ref, p))
    return out
