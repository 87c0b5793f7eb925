"""Count-based rewriting of non-aggregate subqueries (the [1]/[6] family).

Kim-style transformations and the MD-join / APPLY approaches the paper
surveys rewrite non-aggregate subqueries as *aggregate* ones: ``A θ ALL
(SELECT B ...)`` becomes "the count of inner tuples violating A θ B is
zero".  Done naively this inherits the NULL bugs of Section 2; this
implementation is the NULL-*correct* member of the family, counting three
buckets per outer tuple under three-valued logic:

* ``cnt_true``    — inner tuples where A θ B is TRUE,
* ``cnt_false``   — inner tuples where A θ B is FALSE,
* ``cnt_unknown`` — inner tuples where A θ B is UNKNOWN,

and deciding the linking predicate from the bucket counts (e.g. θ ALL is
TRUE iff ``cnt_false = cnt_unknown = 0``).  The point of carrying this
baseline is the ablation in the benchmarks: it does the same outer joins
as the nested relational approach but replaces nest + linking selection
with a grouped aggregation — a "double computation" that the MD-join
needs care to avoid (paper Section 2).

Scope: linear, linearly correlated queries evaluated bottom-up (the same
precondition as the ``bottom-up`` rule of :mod:`repro.core.compute`);
other shapes raise :class:`~repro.errors.PlanError`, mirroring the paper's
remark that the MD-join "only commutes with other joins and selections in
a selective manner".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..strategies import register
from ..errors import PlanError
from ..engine.catalog import Database
from ..engine.expressions import EvalContext, conjoin
from ..engine.metrics import current_metrics
from ..engine.trace import CONTRACT_FILTERING, note_rows, op_span
from ..engine.operators import left_outer_hash_join, outer_cross_join
from ..engine.relation import Relation, Row
from ..engine.types import NULL, TriBool, is_null, sql_compare
from ..core.blocks import LinkSpec, NestedQuery, QueryBlock
from ..core.reduce import ReducedBlock, reduce_all


@register(
    "count-rewrite",
    description="Kim-style COUNT-bug-aware rewrite baseline",
)
class CountRewriteStrategy:
    """NULL-correct count-based unnesting for linear queries."""

    name = "count-rewrite"

    def applicable(self, query: NestedQuery, db: Database) -> Optional[str]:
        """None when the rewrite applies; otherwise the blocking reason."""
        if (
            query.is_linear
            and query.is_linearly_correlated()
            and not query.has_aggregate_link
            and not query.has_disjunction
        ):
            return None
        return "count rewrite requires a linear, linearly correlated query"

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        reason = self.applicable(query, db)
        if reason is not None:
            raise PlanError(reason)
        chain = list(query.root.walk())
        reduced = reduce_all(query, db)
        if len(chain) == 1:
            out = reduced[query.root.index].relation.project(
                query.root.select_refs
            )
            return out.distinct() if query.root.distinct else out
        carry: Optional[Relation] = None
        for parent, child in zip(reversed(chain[:-1]), reversed(chain[1:])):
            crel = reduced[child.index]
            child_rel = carry if carry is not None else crel.relation
            parent_rel = reduced[parent.index].relation
            carry = self._count_filter(
                parent_rel, child_rel, child, crel.rid_ref
            )
        assert carry is not None
        out = carry.project(query.root.select_refs)
        if query.root.distinct:
            out = out.distinct()
        return out

    # ------------------------------------------------------------------ #

    def _count_filter(
        self,
        parent_rel: Relation,
        child_rel: Relation,
        child: QueryBlock,
        child_rid: str,
    ) -> Relation:
        """Outer-join parent with child, bucket-count the linking
        comparison per parent tuple, keep parents passing the count test."""
        link = child.link
        assert link is not None
        equi = [c for c in child.correlations if c.is_equality]
        other = [c for c in child.correlations if not c.is_equality]
        if child.correlations:
            joined = left_outer_hash_join(
                parent_rel,
                child_rel,
                [c.outer_ref for c in equi],
                [c.inner_ref for c in equi],
                residual=conjoin([c.as_expr() for c in other]) if other else None,
            )
        else:
            joined = outer_cross_join(parent_rel, child_rel)

        schema = joined.schema
        parent_width = len(parent_rel.schema)
        rid_pos = schema.index_of(child_rid)
        lhs_pos = (
            schema.index_of(link.outer_ref) if link.outer_ref is not None else None
        )
        val_pos = (
            schema.index_of(link.inner_ref) if link.inner_ref is not None else None
        )
        metrics = current_metrics()

        # Group by the parent prefix (parent rows are unique, so the full
        # prefix is a valid group key) and bucket-count.
        from ..engine.types import row_group_key

        counts: Dict[tuple, List[int]] = {}
        reps: Dict[tuple, Row] = {}
        order: List[tuple] = []
        theta = link.effective_theta
        with op_span(
            "count-filter", kind="phase", contract=CONTRACT_FILTERING
        ) as span:
            for row in joined.rows:
                metrics.add("rows_scanned")
                key = row_group_key(row[:parent_width])
                if key not in counts:
                    counts[key] = [0, 0, 0, 0]  # true, false, unknown, present
                    reps[key] = row[:parent_width]
                    order.append(key)
                bucket = counts[key]
                if is_null(row[rid_pos]):
                    continue  # padded: no inner tuple
                bucket[3] += 1
                if theta is None:
                    continue  # EXISTS/NOT EXISTS need only presence counts
                lhs = row[lhs_pos] if lhs_pos is not None else NULL
                outcome = sql_compare(theta, lhs, row[val_pos])
                if outcome is TriBool.TRUE:
                    bucket[0] += 1
                elif outcome is TriBool.FALSE:
                    bucket[1] += 1
                else:
                    bucket[2] += 1

            out_rows: List[Row] = []
            for key in order:
                cnt_true, cnt_false, cnt_unknown, present = counts[key]
                metrics.add("linking_evals")
                if _passes(link, cnt_true, cnt_false, cnt_unknown, present):
                    out_rows.append(reps[key])
            note_rows(span, len(out_rows), len(joined.rows))
        return Relation(parent_rel.schema, out_rows)


def _passes(
    link: LinkSpec, cnt_true: int, cnt_false: int, cnt_unknown: int, present: int
) -> bool:
    """Decide the linking predicate from the bucket counts (3VL)."""
    if link.operator == "exists":
        return present > 0
    if link.operator == "not_exists":
        return present == 0
    if link.quantifier == "all":
        return cnt_false == 0 and cnt_unknown == 0
    return cnt_true > 0
