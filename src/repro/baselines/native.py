"""Emulation of the commercial optimizer the paper calls "System A".

The paper benchmarks its approach against an unnamed commercial DBMS
whose plan choices Section 5.2 narrates in detail.  This module encodes
those rules as an executable plan chooser so the benchmark harness can
reproduce the *shape* of every figure:

1. A subquery is **unnested into a semijoin** when its linking operator
   is positive (EXISTS / IN / θ SOME) and into an **antijoin** when it is
   NOT EXISTS — provided its whole subtree is *self-contained*: every
   block in it correlates only with its adjacent parent block, through
   equality predicates.  ("If the linking operators are any combination
   of ANY/SOME, IN, EXISTS and NOT EXISTS, the native approach ... is the
   combination of semijoin and/or antijoin.")

2. ``θ ALL`` / ``NOT IN`` is unnested into an antijoin on the negated
   comparison **only when the linked attribute carries a NOT NULL
   constraint** (and rule 1's shape conditions hold).  "However, if the
   NOT NULL constraint is dropped, even though there are no null values
   ..., antijoin is not used."

3. Everything else falls back to **nested iteration**: for each candidate
   outer tuple the subquery is re-evaluated, accessing the inner table
   through the best available index on its equality-bound columns (the
   widest index whose key is a subset of the bound columns — the paper's
   combined ``(l_partkey, l_suppkey)`` index vs the single ``l_suppkey``
   index is exactly this choice), then filtering fetched rows by the
   block's local predicate and any remaining correlations.  EXISTS-style
   children short-circuit at the first qualifying row (nested-loop
   semi/antijoin behaviour).

The emulation runs on the same engine and data as every other strategy,
so results are comparable and differentially testable while costs follow
the plan shapes the paper observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..strategies import register
from ..errors import PlanError
from ..engine.catalog import Database, Table
from ..engine.expressions import (
    Col,
    Comparison,
    EvalContext,
    conjoin,
    truth,
)
from ..engine.metrics import current_metrics
from ..engine.operators import anti_join, semi_join
from ..engine.relation import Relation, Row
from ..engine.trace import CONTRACT_FILTERING, note_rows, op_span
from ..engine.schema import Column, Schema
from ..engine.types import (
    NULL,
    TriBool,
    is_null,
    negate_op,
    sql_compare,
    tri_all,
    tri_any,
    tri_value,
)
from ..core.blocks import AGG_OP, NestedQuery, QueryBlock
from ..core.linking import aggregate_value
from ..core.reduce import ReducedBlock

#: plan actions for a child subquery
SEMIJOIN = "semijoin"
ANTIJOIN = "antijoin"
ANTIJOIN_NEGATED = "antijoin-negated-theta"
NESTED_ITERATION = "nested-iteration"


#: unique marker for "generator exhausted" checks
_SENTINEL = object()


@dataclass
class ChildPlan:
    block: QueryBlock
    action: str
    reason: str


@register(
    "system-a-native",
    description="System A emulation: per-tuple index probes (paper §5)",
)
class SystemAEmulationStrategy:
    """Plan chooser + executor mimicking the paper's System A."""

    name = "system-a-native"

    # ------------------------------------------------------------------ #
    # plan selection
    # ------------------------------------------------------------------ #

    def plan(self, query: NestedQuery, db: Database) -> Dict[int, ChildPlan]:
        """Choose an action for every non-root block."""
        plans: Dict[int, ChildPlan] = {}

        def visit(block: QueryBlock, parent_unnested: bool) -> None:
            for child in block.children:
                action, reason = self._choose(child, query, db, parent_unnested)
                plans[child.index] = ChildPlan(child, action, reason)
                visit(child, parent_unnested and action != NESTED_ITERATION)

        visit(query.root, True)
        return plans

    def _choose(
        self,
        child: QueryBlock,
        query: NestedQuery,
        db: Database,
        parent_unnested: bool,
    ) -> Tuple[str, str]:
        link = child.link
        assert link is not None
        if link.mark is not None:
            return (
                NESTED_ITERATION,
                "disjunctive linking predicate (no unnesting under OR/NOT)",
            )
        if link.operator == AGG_OP:
            return (
                NESTED_ITERATION,
                f"aggregate linking predicate {link.agg_text}",
            )
        shape_reason = self._self_contained(child, query)
        if shape_reason is not None:
            return NESTED_ITERATION, shape_reason
        if not parent_unnested:
            return (
                NESTED_ITERATION,
                "enclosing block already evaluated by nested iteration",
            )
        if link.operator in ("exists", "in", "some"):
            return SEMIJOIN, f"positive operator {link.operator.upper()}"
        if link.operator == "not_exists":
            return ANTIJOIN, "NOT EXISTS"
        # ALL / NOT IN: the antijoin on the negated comparison is only
        # sound when neither side of the theta can be NULL.  A NULL linked
        # value makes every comparison UNKNOWN, and a NULL *linking* value
        # makes ``x <> ALL {..}`` UNKNOWN over a non-empty inner set — the
        # antijoin would keep such rows, so both need NOT NULL.
        assert link.inner_ref is not None and link.outer_ref is not None
        alias, _, column = link.inner_ref.rpartition(".")
        table_name = child.tables.get(alias)
        if table_name is None:
            return NESTED_ITERATION, "linked attribute outside the block"
        if not db.table(table_name).schema.column(column).not_null:
            return (
                NESTED_ITERATION,
                f"{link.operator.upper()} with NULLable linked attribute "
                f"{link.inner_ref}",
            )
        if not self._column_not_null(link.outer_ref, query, db):
            return (
                NESTED_ITERATION,
                f"{link.operator.upper()} with NULLable linking attribute "
                f"{link.outer_ref}",
            )
        return (
            ANTIJOIN_NEGATED,
            f"{link.operator.upper()} with NOT NULL {link.inner_ref}",
        )

    @staticmethod
    def _column_not_null(ref: str, query: NestedQuery, db: Database) -> bool:
        """Whether the column behind a qualified ref carries NOT NULL."""
        alias, _, column = ref.rpartition(".")
        for block in query.root.walk():
            table_name = block.tables.get(alias)
            if table_name is not None:
                return db.table(table_name).schema.column(column).not_null
        return False

    @staticmethod
    def _self_contained(child: QueryBlock, query: NestedQuery) -> Optional[str]:
        """None if subtree(child) only has adjacent equality correlations."""
        parent = query.parent_of(child)
        assert parent is not None
        parent_of: Dict[int, QueryBlock] = {child.index: parent}
        for b in child.walk():
            for c in b.children:
                parent_of[c.index] = b
        for b in child.walk():
            expected = parent_of[b.index]
            for corr in b.correlations:
                alias = corr.outer_ref.rpartition(".")[0]
                if alias not in expected.tables:
                    return (
                        f"block {b.index} correlates with a non-adjacent "
                        f"block ({corr.describe()})"
                    )
                if not corr.is_equality:
                    return (
                        f"non-equality correlation {corr.describe()} "
                        f"prevents hash semijoin/antijoin"
                    )
        return None

    def explain(self, query: NestedQuery, db: Database) -> str:
        """Human-readable plan description (one line per subquery)."""
        plans = self.plan(query, db)
        lines = []
        for idx in sorted(plans):
            p = plans[idx]
            lines.append(
                f"block {idx} [{p.block.link.describe()}]: {p.action}"
                f"  -- {p.reason}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        plans = self.plan(query, db)
        reduced = self._reduce_needed(query, plans, db)
        root = query.root
        rel = reduced[root.index].relation
        rel = self._apply_children(root, rel, plans, reduced, query, db)
        out = rel.project(root.select_refs)
        if root.distinct:
            out = out.distinct()
        return out

    @staticmethod
    def _reduce_needed(
        query: NestedQuery, plans: Dict[int, "ChildPlan"], db: Database
    ) -> Dict[int, ReducedBlock]:
        """Reduce only the root and unnested blocks.

        Blocks evaluated by nested iteration are accessed through base
        tables and indexes per outer tuple — materializing their reduced
        relation up front would charge System A for scans its plan never
        performs.  Grouped subquery blocks are the exception even under
        nested iteration: they are uncorrelated by construction, so their
        aggregation happens exactly once here rather than per probe.
        """
        from ..core.reduce import _is_grouped_subquery, reduce_block

        reduced: Dict[int, ReducedBlock] = {
            query.root.index: reduce_block(query.root, db)
        }

        def visit(block: QueryBlock) -> None:
            for child in block.children:
                if plans[child.index].action != NESTED_ITERATION:
                    reduced[child.index] = reduce_block(child, db)
                elif _is_grouped_subquery(child):
                    reduced[child.index] = reduce_block(child, db)
                visit(child)

        visit(query.root)
        return reduced

    def _apply_children(
        self,
        block: QueryBlock,
        rel: Relation,
        plans: Dict[int, ChildPlan],
        reduced: Dict[int, ReducedBlock],
        query: NestedQuery,
        db: Database,
    ) -> Relation:
        for child in block.children:
            if child.link is not None and child.link.mark is not None:
                continue  # combined via the block residual below
            plan = plans[child.index]
            if plan.action == NESTED_ITERATION:
                rel = self._nested_iterate(rel, child, query, db, reduced)
            else:
                child_rel = self._apply_children(
                    child, reduced[child.index].relation, plans, reduced,
                    query, db,
                )
                rel = self._join_unnested(rel, child, child_rel, plan.action)
        if block.residual is not None:
            rel = self._apply_residual(block, rel, query, db, reduced)
        return rel

    def _apply_residual(
        self,
        block: QueryBlock,
        rel: Relation,
        query: NestedQuery,
        db: Database,
        reduced: Dict[int, ReducedBlock],
    ) -> Relation:
        """Filter by the block's disjunctive residual: evaluate every
        marked child's linking predicate per tuple, bind the verdicts as
        mark values and keep rows where the residual is TRUE."""
        marked = [
            c
            for c in block.children
            if c.link is not None and c.link.mark is not None
        ]
        names = sorted(c.link.mark for c in marked)
        by_name = {c.link.mark: c for c in marked}
        mark_schema = Schema([Column(name) for name in names])
        metrics = current_metrics()
        out_rows: List[Row] = []
        with op_span(
            "residual-probe",
            contract=CONTRACT_FILTERING,
            block=block.index,
        ) as span:
            for row in rel.rows:
                metrics.add("rows_scanned")
                ctx = EvalContext.single(rel.schema, row)
                mark_row = tuple(
                    tri_value(
                        self._link_holds(by_name[name], ctx, query, db, reduced)
                    )
                    for name in names
                )
                rctx = ctx.push(mark_schema, mark_row)
                metrics.add("linking_evals")
                if truth(block.residual, rctx).is_true():
                    out_rows.append(row)
            note_rows(span, len(out_rows), len(rel.rows))
        return Relation(rel.schema, out_rows)

    @staticmethod
    def _join_unnested(
        rel: Relation, child: QueryBlock, child_rel: Relation, action: str
    ) -> Relation:
        link = child.link
        assert link is not None
        equi = [c for c in child.correlations if c.is_equality]
        residuals = [c.as_expr() for c in child.correlations if not c.is_equality]
        left_keys = [c.outer_ref for c in equi]
        right_keys = [c.inner_ref for c in equi]
        if action == SEMIJOIN:
            if link.operator in ("in", "some"):
                residuals.append(
                    Comparison(
                        link.effective_theta,
                        Col(link.outer_ref),
                        Col(link.inner_ref),
                    )
                )
            join = semi_join
        elif action == ANTIJOIN:
            join = anti_join
        elif action == ANTIJOIN_NEGATED:
            residuals.append(
                Comparison(
                    negate_op(link.effective_theta),
                    Col(link.outer_ref),
                    Col(link.inner_ref),
                )
            )
            join = anti_join
        else:  # pragma: no cover - guarded by caller
            raise PlanError(f"not an unnesting action: {action}")
        return join(
            rel,
            child_rel,
            left_keys,
            right_keys,
            residual=conjoin(residuals) if residuals else None,
        )

    # ------------------------------------------------------------------ #
    # nested iteration with index access
    # ------------------------------------------------------------------ #

    def _nested_iterate(
        self,
        rel: Relation,
        child: QueryBlock,
        query: NestedQuery,
        db: Database,
        reduced: Dict[int, ReducedBlock],
    ) -> Relation:
        out_rows: List[Row] = []
        metrics = current_metrics()
        with op_span(
            "nested-iteration-probe",
            contract=CONTRACT_FILTERING,
            block=child.index,
        ) as span:
            for row in rel.rows:
                metrics.add("rows_scanned")
                ctx = EvalContext.single(rel.schema, row)
                if self._link_holds(child, ctx, query, db, reduced).is_true():
                    out_rows.append(row)
            note_rows(span, len(out_rows), len(rel.rows))
        return Relation(rel.schema, out_rows)

    def _link_holds(
        self,
        child: QueryBlock,
        ctx: EvalContext,
        query: NestedQuery,
        db: Database,
        reduced: Dict[int, ReducedBlock],
    ) -> TriBool:
        link = child.link
        assert link is not None
        values = self._iterate_block(child, ctx, query, db, reduced)
        if link.operator == "exists":
            # nested-loop semijoin behaviour: stop at the first match
            return TriBool.from_bool(next(iter(values), _SENTINEL) is not _SENTINEL)
        if link.operator == "not_exists":
            return TriBool.from_bool(next(iter(values), _SENTINEL) is _SENTINEL)
        if link.operator == AGG_OP:
            all_values = list(values)
            agg = aggregate_value(
                link.agg_func,
                [v for v in all_values if not is_null(v)],
                len(all_values),
            )
            lhs = (
                link.outer_const[0]
                if link.outer_const is not None
                else ctx.lookup(link.outer_ref)
            )
            return sql_compare(link.theta, lhs, agg)
        lhs = ctx.lookup(link.outer_ref)

        comparisons = (
            sql_compare(link.effective_theta, lhs, v) for v in values
        )
        if link.quantifier == "all":
            return tri_all(comparisons)
        # tri_any short-circuits on the first TRUE comparison, so SOME/ANY
        # stops probing early just like an index nested-loop semijoin.
        return tri_any(comparisons)

    def _iterate_block(
        self,
        block: QueryBlock,
        ctx: EvalContext,
        query: NestedQuery,
        db: Database,
        reduced: Dict[int, ReducedBlock],
    ):
        """Evaluate a subquery block per-tuple, probing indexes.

        Lazily yields the linked-attribute values of qualifying tuples
        (NULL placeholders for EXISTS blocks), so existential and SOME
        consumers can stop early.  Multi-table blocks fall back to
        scanning the reduced join; the paper's workloads are all
        single-table blocks.
        """
        link = block.link
        assert link is not None
        if block.group_by or block.aggregates or block.having is not None:
            # grouped subquery blocks are uncorrelated, so their
            # aggregation was reduced exactly once up front; the probe
            # just re-reads the grouped rows
            grouped = reduced[block.index].relation
            pos = (
                grouped.schema.index_of(link.inner_ref)
                if link.inner_ref is not None
                else None
            )
            for row in grouped.rows:
                yield row[pos] if pos is not None else NULL
            return
        metrics = current_metrics()
        if len(block.tables) != 1:
            candidates = self._scan_multi(block, db)
            bound_corrs = list(block.correlations)
        else:
            alias, table_name = next(iter(block.tables.items()))
            table = db.table(table_name)
            candidates, bound_corrs = self._access_path(
                block, table, alias, ctx
            )
        value_pos = None
        schema = candidates.schema
        if link.inner_ref is not None:
            value_pos = schema.index_of(link.inner_ref)
        local = block.local_predicate
        for row in candidates.rows:
            metrics.add("rows_scanned")
            row_ctx = ctx.push(schema, row)
            if local is not None:
                metrics.add("predicate_evals")
                if not truth(local, row_ctx).is_true():
                    continue
            ok = True
            for corr in bound_corrs:
                metrics.add("predicate_evals")
                if not truth(corr.as_expr(), row_ctx).is_true():
                    ok = False
                    break
            if not ok:
                continue
            passed = True
            for grandchild in block.children:
                # marked grandchildren (links under OR/NOT) do not filter
                # individually; the block residual combines their verdicts
                if grandchild.link is not None and grandchild.link.mark is not None:
                    continue
                if not self._link_holds(
                    grandchild, row_ctx, query, db, reduced
                ).is_true():
                    passed = False
                    break
            if not passed:
                continue
            if block.residual is not None:
                marks = {
                    c.link.mark: self._link_holds(c, row_ctx, query, db, reduced)
                    for c in block.children
                    if c.link is not None and c.link.mark is not None
                }
                names = sorted(marks)
                rctx = row_ctx.push(
                    Schema([Column(name) for name in names]),
                    tuple(tri_value(marks[name]) for name in names),
                )
                metrics.add("linking_evals")
                if not truth(block.residual, rctx).is_true():
                    continue
            yield row[value_pos] if value_pos is not None else NULL

    def _access_path(
        self,
        block: QueryBlock,
        table: Table,
        alias: str,
        ctx: EvalContext,
    ) -> Tuple[Relation, List]:
        """Pick the widest usable index for the bound equality correlations.

        Returns (candidate rows as a relation under the block's alias,
        correlations that still need row-level checking).
        """
        equality = [
            c
            for c in block.correlations
            if c.is_equality and ctx.resolvable(c.outer_ref)
        ]
        inner_columns = [c.inner_ref.rpartition(".")[2] for c in equality]
        best = table.any_hash_index_covering(inner_columns)
        if best is None:
            rel = table.relation
            if alias != table.name:
                rel = rel.rename_table(alias)
            return rel, list(block.correlations)
        index, key = best
        covered = {col: corr for col, corr in zip(inner_columns, equality)}
        probe_values = [ctx.lookup(covered[col].outer_ref) for col in key]
        rows = index.probe(probe_values)
        rel = Relation(table.relation.schema, rows)
        if alias != table.name:
            rel = rel.rename_table(alias)
        remaining = [
            c
            for c in block.correlations
            if c not in [covered[col] for col in key]
        ]
        return rel, remaining

    @staticmethod
    def _scan_multi(block: QueryBlock, db: Database) -> Relation:
        from ..core.reduce import execute_join_plan, plan_block_join

        return execute_join_plan(plan_block_join(block), db)
