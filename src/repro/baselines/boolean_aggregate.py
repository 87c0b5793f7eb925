"""Boolean-aggregate evaluation of linking predicates (the [2] approach).

Badia's earlier "Computing SQL Queries with Boolean Aggregates" applies
the linking condition to each tuple of a group and aggregates the truth
values with three-valued AND (for ALL-style operators) or OR (for
SOME-style operators); tuples that fail are *marked* rather than
discarded.  This is semantically the same computation the nested
relational approach performs with nest + linking selection — the
difference is purely operational (an aggregate operator versus a nested
relation), which is exactly what the ablation benchmark measures.

Implementation: the same bottom-up pipeline as the count rewrite, but
each group's verdict comes from
:class:`~repro.engine.operators.aggregate.GroupAggregate`'s ``bool_and``
/ ``bool_or`` aggregates evaluated over the joined rows, with the
NULL-rid guard expressed inside the aggregated predicate (a padded inner
tuple contributes TRUE to AND-aggregates and FALSE to OR-aggregates —
the neutral elements — so empty groups resolve correctly).

Scope: linear, linearly correlated queries, like the other bottom-up
baselines.
"""

from __future__ import annotations

from typing import List, Optional

from ..strategies import register
from ..errors import PlanError
from ..engine.catalog import Database
from ..engine.expressions import (
    Col,
    Comparison,
    IsNull,
    Or,
    And,
    Not,
    conjoin,
)
from ..engine.operators import (
    AggSpec,
    GroupAggregate,
    left_outer_hash_join,
    outer_cross_join,
)
from ..engine.relation import Relation
from ..core.blocks import NestedQuery, QueryBlock
from ..core.reduce import reduce_all


@register(
    "boolean-aggregate",
    description="boolean-aggregate (mark join) rewrite baseline",
)
class BooleanAggregateStrategy:
    """Linking predicates as Boolean aggregates over marked tuples."""

    name = "boolean-aggregate"

    def applicable(self, query: NestedQuery, db: Database) -> Optional[str]:
        """None when the rewrite applies; otherwise the blocking reason."""
        if (
            query.is_linear
            and query.is_linearly_correlated()
            and not query.has_aggregate_link
            and not query.has_disjunction
        ):
            return None
        return (
            "boolean-aggregate evaluation requires a linear, linearly "
            "correlated query"
        )

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
                    residual=conjoin([c.as_expr() for c in other])
                    if other
                    else None,
                )
            else:
                joined = outer_cross_join(parent_rel, child_rel)

            padded = IsNull(Col(crel.rid_ref))
            if link.operator == "exists":
                spec = AggSpec(
                    "bool_or",
                    predicate=And(Not(padded), _lit_true()),
                    name="verdict",
                )
            elif link.operator == "not_exists":
                spec = AggSpec(
                    "bool_and", predicate=padded, name="verdict"
                )
            elif link.quantifier == "all":
                # padded OR (A θ B): padded rows contribute TRUE (neutral)
                spec = AggSpec(
                    "bool_and",
                    predicate=Or(padded, _theta(link)),
                    name="verdict",
                )
            else:
                # (NOT padded) AND (A θ B): padded rows contribute FALSE
                spec = AggSpec(
                    "bool_or",
                    predicate=And(Not(padded), _theta(link)),
                    name="verdict",
                )

            group_refs = list(parent_rel.schema.names)
            agg = GroupAggregate(joined, group_refs, [spec]).run()
            verdict_pos = agg.schema.index_of("verdict")
            out_rows = [
                row[:-1]
                for row in agg.rows
                if row[verdict_pos] is True
            ]
            carry = Relation(parent_rel.schema, out_rows)
        assert carry is not None
        out = carry.project(query.root.select_refs)
        if query.root.distinct:
            out = out.distinct()
        return out


def _theta(link) -> Comparison:
    return Comparison(link.effective_theta, Col(link.outer_ref), Col(link.inner_ref))


def _lit_true():
    from ..engine.expressions import Literal

    return Literal(True)
