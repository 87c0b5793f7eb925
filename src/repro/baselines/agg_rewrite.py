"""Kim-style type-JA aggregate rewriting of quantified subqueries.

Kim's classic transformation turns an inequality-quantified subquery into
a scalar aggregate comparison:

* ``A >  ALL S``  →  ``A >  MAX(S)``     * ``A >  SOME S``  →  ``A >  MIN(S)``
* ``A >= ALL S``  →  ``A >= MAX(S)``     * ``A >= SOME S``  →  ``A >= MIN(S)``
* ``A <  ALL S``  →  ``A <  MIN(S)``     * ``A <  SOME S``  →  ``A <  MAX(S)``
* ``A <= ALL S``  →  ``A <= MIN(S)``     * ``A <= SOME S``  →  ``A <= MAX(S)``

with the empty set handled by a COUNT guard (ALL over ∅ is TRUE, SOME is
FALSE).  The paper's Section 2 singles this rewrite out as **unsound with
NULLs**: ``R.A > ALL (SELECT S.B ...)`` "is not equal to
``R.A > (SELECT MAX(S.B) ...)``" because MAX *ignores* NULL members while
3VL does not — with ``R.A = 5`` and ``S.B = {2,3,4,NULL}``, MAX gives
``5 > 4`` = TRUE where SQL gives UNKNOWN.

Like :class:`~repro.baselines.unnesting.ClassicalUnnestingStrategy`, this
strategy therefore guards on NOT NULL constraints (both sides of the
linking predicate) and raises
:class:`~repro.errors.UnsoundRewriteError` otherwise; pass
``respect_null_soundness=False`` to reproduce the wrong answers in
demonstrations and ablations.

Scope: one-level queries whose linking operator is an inequality
quantifier and whose correlations are equalities — exactly where the
transformation was proposed.  (= SOME and <> ALL have no MIN/MAX analogue
and are rejected.)
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..strategies import register
from ..errors import PlanError, UnsoundRewriteError
from ..engine.catalog import Database
from ..engine.metrics import current_metrics
from ..engine.trace import CONTRACT_FILTERING, current_tracer
from ..engine.relation import Relation, Row
from ..engine.types import NULL, is_null, row_group_key, sql_compare
from ..core.blocks import LinkSpec, NestedQuery, QueryBlock
from ..core.reduce import reduce_all

#: theta, quantifier -> which aggregate decides the comparison
_AGG_FOR = {
    (">", "all"): "max",
    (">=", "all"): "max",
    ("<", "all"): "min",
    ("<=", "all"): "min",
    (">", "some"): "min",
    (">=", "some"): "min",
    ("<", "some"): "max",
    ("<=", "some"): "max",
}


@register(
    "aggregate-rewrite",
    description="aggregate-based (min/max/count) rewrite baseline",
)
class AggregateRewriteStrategy:
    """Kim's MAX/MIN rewrite, with NULL-soundness guards."""

    name = "aggregate-rewrite"

    def __init__(self, respect_null_soundness: bool = True):
        self.respect_null_soundness = respect_null_soundness

    # ------------------------------------------------------------------ #

    def applicable(self, query: NestedQuery, db: Database) -> Optional[str]:
        """None when the rewrite applies; otherwise the blocking reason."""
        if query.nesting_depth != 1:
            return "aggregate rewrite handles one-level queries only"
        if query.has_disjunction:
            return (
                "marked (disjunctive) linking predicates keep their "
                "residual semantics only in the nested pipeline"
            )
        for child in query.root.children:
            link = child.link
            assert link is not None
            if (link.effective_theta, link.quantifier) not in _AGG_FOR:
                return (
                    f"operator {link.describe()} has no MIN/MAX analogue "
                    "(only inequality quantifiers rewrite)"
                )
            for corr in child.correlations:
                if not corr.is_equality:
                    return f"non-equality correlation {corr.describe()}"
            if self.respect_null_soundness:
                reason = self._null_reason(link, child, query, db)
                if reason is not None:
                    return reason
        return None

    @staticmethod
    def _null_reason(
        link: LinkSpec, child: QueryBlock, query: NestedQuery, db: Database
    ) -> Optional[str]:
        for ref, where in ((link.inner_ref, child), (link.outer_ref, None)):
            assert ref is not None
            alias, _, column = ref.rpartition(".")
            blocks = [where] if where is not None else list(query.root.walk())
            for block in blocks:
                if alias in block.tables:
                    table = db.table(block.tables[alias])
                    if not table.schema.column(column).not_null:
                        return (
                            f"attribute {ref} is NULLable; MAX/MIN ignore "
                            "NULLs so the rewrite is unsound"
                        )
                    break
        return None

    # ------------------------------------------------------------------ #

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        reason = self.applicable(query, db)
        if reason is not None:
            if "unsound" in reason and self.respect_null_soundness:
                raise UnsoundRewriteError(reason)
            if "unsound" not in reason:
                raise PlanError(reason)
        reduced = reduce_all(query, db)
        rel = reduced[query.root.index].relation
        for child in query.root.children:
            rel = self._apply(rel, child, reduced[child.index].relation)
        out = rel.project(query.root.select_refs)
        if query.root.distinct:
            out = out.distinct()
        return out

    def _apply(
        self, rel: Relation, child: QueryBlock, child_rel: Relation
    ) -> Relation:
        link = child.link
        assert link is not None
        theta = link.effective_theta
        agg = _AGG_FOR[(theta, link.quantifier)]
        inner_pos = child_rel.schema.index_of(link.inner_ref)
        corr_inner = child_rel.schema.indices_of(
            [c.inner_ref for c in child.correlations]
        )
        metrics = current_metrics()

        # group the child: correlation key -> (count, max, min) over non-NULLs
        tracer = current_tracer()
        span = (
            tracer.open("agg-filter", kind="phase", contract=CONTRACT_FILTERING)
            if tracer is not None
            else None
        )
        groups: Dict[tuple, List] = {}
        for row in child_rel.rows:
            metrics.add("rows_scanned")
            key = row_group_key(tuple(row[i] for i in corr_inner))
            state = groups.setdefault(key, [0, None, None])
            state[0] += 1
            value = row[inner_pos]
            if is_null(value):
                continue  # MAX/MIN ignore NULLs — the unsoundness source
            if state[1] is None or value > state[1]:
                state[1] = value
            if state[2] is None or value < state[2]:
                state[2] = value

        corr_outer = rel.schema.indices_of(
            [c.outer_ref for c in child.correlations]
        )
        lhs_pos = rel.schema.index_of(link.outer_ref)
        out_rows: List[Row] = []
        for row in rel.rows:
            metrics.add("linking_evals")
            key_vals = tuple(row[i] for i in corr_outer)
            state = (
                groups.get(row_group_key(key_vals))
                if not any(is_null(v) for v in key_vals)
                else None
            )
            if state is None or state[0] == 0:
                # empty subquery result: ALL passes, SOME fails
                if link.quantifier == "all":
                    out_rows.append(row)
                continue
            bound = state[1] if agg == "max" else state[2]
            if bound is None:
                # all members NULL: MAX/MIN are NULL -> comparison UNKNOWN.
                # (Even Kim's rewrite agrees with SQL here: row excluded.)
                continue
            if sql_compare(theta, row[lhs_pos], bound).is_true():
                out_rows.append(row)
        if span is not None:
            span.add("rows_in", len(rel.rows))
            span.add("rows_out", len(out_rows))
            tracer.close(span)
        return Relation(rel.schema, out_rows)
