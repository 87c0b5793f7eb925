"""Tuple-iteration (nested iteration) evaluation — the correctness oracle.

This strategy executes a nested query exactly the way SQL semantics
define it (and the way Kim [10] observed to be "very inefficient"): for
every candidate tuple of a block, each subquery in its WHERE clause is
re-evaluated from scratch under the current correlation bindings, and the
linking predicate is applied to the resulting value set under
three-valued logic.

Because it is a direct transcription of the semantics, every other
strategy in this repository is differential-tested against it.  It is
intentionally unoptimized — no indexes, no memoization — except that each
block's *local* reduction T_i = σ_Δi(R_i) is computed once up front
(evaluating Δ_i per iteration would only slow the oracle down without
changing any result).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..strategies import register
from ..engine.catalog import Database
from ..engine.expressions import EvalContext, truth
from ..engine.metrics import current_metrics
from ..engine.relation import Relation, Row
from ..engine.schema import Column, Schema
from ..engine.trace import CONTRACT_FILTERING, op_span
from ..engine.types import NULL, TriBool, is_null, sql_compare, tri_all, tri_any, tri_value
from ..core.blocks import AGG_OP, LinkSpec, NestedQuery, QueryBlock
from ..core.linking import aggregate_value
from ..core.reduce import ReducedBlock, reduce_all


@register(
    "nested-iteration",
    description="tuple-at-a-time nested iteration (the differential oracle)",
)
class NestedIterationStrategy:
    """Direct tuple-iteration evaluation of a nested query."""

    name = "nested-iteration"

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        reduced = reduce_all(query, db)
        root = query.root
        root_rel = reduced[root.index].relation
        ctx = EvalContext()
        out_rows: List[Row] = []
        select_idx = root_rel.schema.indices_of(root.select_refs)
        with op_span("tuple-iteration", contract=CONTRACT_FILTERING) as span:
            for row in root_rel.rows:
                current_metrics().add("rows_scanned")
                row_ctx = ctx.push(root_rel.schema, row)
                if self._passes_links(root, row_ctx, reduced):
                    out_rows.append(tuple(row[i] for i in select_idx))
            if span is not None:
                span.add("rows_in", len(root_rel.rows))
                span.add("rows_out", len(out_rows))
        out = Relation(root_rel.schema.project(root.select_refs), out_rows)
        if root.distinct:
            out = out.distinct()
        return out

    # ------------------------------------------------------------------ #

    def _passes_links(
        self,
        block: QueryBlock,
        ctx: EvalContext,
        reduced: Dict[int, ReducedBlock],
    ) -> bool:
        """All child linking predicates TRUE for the bound tuple?

        Marked children (linking predicates under OR/NOT) do not filter
        individually; their three-valued verdicts are bound as mark
        values and combined by the block's residual expression.
        """
        for child in block.children:
            if child.link is not None and child.link.mark is not None:
                continue
            if not self._link_result(child, ctx, reduced).is_true():
                return False
        if block.residual is not None:
            marks = {
                child.link.mark: self._link_result(child, ctx, reduced)
                for child in block.children
                if child.link is not None and child.link.mark is not None
            }
            names = sorted(marks)
            rctx = ctx.push(
                Schema([Column(name) for name in names]),
                tuple(tri_value(marks[name]) for name in names),
            )
            if not truth(block.residual, rctx).is_true():
                return False
        return True

    def _link_result(
        self,
        child: QueryBlock,
        ctx: EvalContext,
        reduced: Dict[int, ReducedBlock],
    ) -> TriBool:
        """Evaluate the linking predicate of *child* under *ctx* (3VL)."""
        link = child.link
        assert link is not None
        values = self._subquery_values(child, ctx, reduced, link)
        if link.operator == "exists":
            return TriBool.from_bool(len(values) > 0)
        if link.operator == "not_exists":
            return TriBool.from_bool(len(values) == 0)
        if link.operator == AGG_OP:
            agg = aggregate_value(
                link.agg_func,
                [v for v in values if not is_null(v)],
                len(values),
            )
            lhs = (
                link.outer_const[0]
                if link.outer_const is not None
                else ctx.lookup(link.outer_ref)
            )
            return sql_compare(link.theta, lhs, agg)
        lhs = ctx.lookup(link.outer_ref)
        theta = link.effective_theta

        comparisons = (sql_compare(theta, lhs, v) for v in values)
        if link.quantifier == "all":
            return tri_all(comparisons)
        return tri_any(comparisons)

    def _subquery_values(
        self,
        child: QueryBlock,
        ctx: EvalContext,
        reduced: Dict[int, ReducedBlock],
        link: LinkSpec,
    ) -> List:
        """Run the subquery for the current bindings; return the result
        column (linked attribute) values, one per qualifying tuple."""
        crel = reduced[child.index].relation
        value_pos = (
            crel.schema.index_of(link.inner_ref)
            if link.inner_ref is not None
            else None
        )
        out = []
        for row in crel.rows:
            current_metrics().add("rows_scanned")
            row_ctx = ctx.push(crel.schema, row)
            if not self._correlations_hold(child, row_ctx):
                continue
            if not self._passes_links(child, row_ctx, reduced):
                continue
            out.append(row[value_pos] if value_pos is not None else NULL)
        return out

    @staticmethod
    def _correlations_hold(child: QueryBlock, ctx: EvalContext) -> bool:
        from ..engine.expressions import truth

        for corr in child.correlations:
            current_metrics().add("predicate_evals")
            if not truth(corr.as_expr(), ctx).is_true():
                return False
        return True
