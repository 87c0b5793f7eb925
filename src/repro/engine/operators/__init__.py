"""Physical operators of the flat relational engine: functions from
:class:`~repro.engine.relation.Relation`\\ s to a ``Relation``."""

from .basic import filter_relation
from .joins import (
    anti_join,
    hash_join,
    left_outer_hash_join,
    nested_loop_join,
    outer_cross_join,
    semi_join,
    witness_join,
)
from .aggregate import AggSpec, GroupAggregate, scalar_aggregate

__all__ = [
    "filter_relation",
    "hash_join",
    "left_outer_hash_join",
    "witness_join",
    "semi_join",
    "anti_join",
    "outer_cross_join",
    "nested_loop_join",
    "AggSpec",
    "GroupAggregate",
    "scalar_aggregate",
]
