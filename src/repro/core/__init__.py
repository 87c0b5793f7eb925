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
from .linking import SetPredicate
from .selection import linking_selection, pseudo_selection
from .query_tree import TreeExpression
from .reduce import ReducedBlock, reduce_all, reduce_block
from .compute import NestedRelationalStrategy, set_predicate_for
from .optimizer import PlannerDecision, choose
from .plan import Plan

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
    "linking_selection",
    "pseudo_selection",
    "TreeExpression",
    "ReducedBlock",
    "reduce_all",
    "reduce_block",
    "NestedRelationalStrategy",
    "set_predicate_for",
    "PlannerDecision",
    "choose",
    "Plan",
]
