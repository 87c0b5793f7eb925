"""The paper's contribution: the extended nested relational algebra and
the nested relational approach to processing SQL subqueries."""

from .blocks import (
    Correlation,
    LINK_OPS,
    LinkSpec,
    NEGATIVE_OPS,
    NestedQuery,
    POSITIVE_OPS,
    QueryBlock,
)
from .nested import NestedRelation, NestedSchema, SubSchema
from .nest import nest, nest_sorted, unnest
from .linking import SetPredicate, evaluate_quantified
from .selection import linking_selection, pseudo_selection
from .query_tree import TreeExpression
from .reduce import ReducedBlock, reduce_all, reduce_block
from .compute import NestedRelationalStrategy, set_predicate_for
from .feedback import FeedbackStore
from .optimizer import PlannerDecision, choose, plan_fingerprint
from .plan import Plan
from .stats import (
    ColumnStats,
    DbStats,
    PlanStats,
    TableStats,
    collect_stats,
    set_table_stats,
)

__all__ = [
    "Correlation",
    "LinkSpec",
    "NestedQuery",
    "QueryBlock",
    "LINK_OPS",
    "POSITIVE_OPS",
    "NEGATIVE_OPS",
    "NestedRelation",
    "NestedSchema",
    "SubSchema",
    "nest",
    "nest_sorted",
    "unnest",
    "SetPredicate",
    "evaluate_quantified",
    "linking_selection",
    "pseudo_selection",
    "TreeExpression",
    "ReducedBlock",
    "reduce_all",
    "reduce_block",
    "NestedRelationalStrategy",
    "set_predicate_for",
    "FeedbackStore",
    "PlannerDecision",
    "choose",
    "plan_fingerprint",
    "Plan",
    "ColumnStats",
    "TableStats",
    "DbStats",
    "PlanStats",
    "collect_stats",
    "set_table_stats",
]
