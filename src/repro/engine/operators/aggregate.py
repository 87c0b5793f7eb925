"""Grouping and aggregation.

The nested relational approach itself does not need aggregates — that is
its selling point for non-aggregate subqueries — but two baselines do:

* Kim-style / MD-join-style rewrites express non-aggregate subqueries as
  COUNT comparisons (paper Section 2 discusses [1, 6]);
* the Boolean-aggregate approach of [2] applies a condition tuple-wise and
  aggregates the truth values with AND/OR.

Aggregates follow SQL semantics: NULLs are ignored by COUNT(col), SUM,
MIN, MAX, AVG; ``COUNT(*)`` counts rows; aggregates over an empty group
return NULL (except COUNT, which returns 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ...errors import ExecutionError
from ..expressions import Expr, bind_truth
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..trace import CONTRACT_FILTERING, note_rows, op_span
from ..schema import Column, Schema
from ..types import FALSE, NULL, TRUE, SqlValue, is_null, row_group_key, tri_value


@dataclass(frozen=True)
class AggSpec:
    """One aggregate column: ``func(arg) AS name``.

    *func* is one of ``count``, ``count_star``, ``sum``, ``min``, ``max``,
    ``avg``, ``bool_and``, ``bool_or``.  For ``bool_and``/``bool_or`` the
    argument is a predicate expression evaluated under 3VL — these two
    implement the Boolean aggregates of the [2] baseline.
    """

    func: str
    arg: Optional[str] = None  # column ref; None for count_star
    predicate: Optional[Expr] = None  # for bool_and / bool_or
    name: str = "agg"


def _finish(func: str, values: List[SqlValue], count_rows: int):
    if func == "count_star":
        return count_rows
    if func == "count":
        return len(values)
    if not values:
        return NULL
    if func == "sum":
        return sum(values)
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "avg":
        return sum(values) / len(values)
    raise ExecutionError(f"unknown aggregate {func!r}")


class GroupAggregate:
    """Hash-based GROUP BY with a list of :class:`AggSpec` outputs.

    Produces a :class:`Relation` with the group-by columns followed by one
    column per aggregate.
    """

    def __init__(
        self,
        source: Relation,
        group_refs: Sequence[str],
        aggs: Sequence[AggSpec],
    ):
        self.source = source
        self.group_refs = list(group_refs)
        self.aggs = list(aggs)

    def run(self) -> Relation:
        with op_span(
            "GroupAggregate",
            contract=CONTRACT_FILTERING,
            by=",".join(self.group_refs) or "()",
            aggs=",".join(a.func for a in self.aggs),
        ) as span:
            result = self._run()
            note_rows(span, len(result.rows), len(self.source.rows))
        return result

    def _run(self) -> Relation:
        metrics = current_metrics()
        schema = self.source.schema
        group_idx = schema.indices_of(self.group_refs)
        arg_idx = [
            schema.index_of(a.arg) if a.arg is not None else None for a in self.aggs
        ]
        groups: Dict[tuple, list] = {}
        order: List[tuple] = []
        reps: Dict[tuple, Row] = {}
        for row in self.source.rows:
            metrics.add("rows_scanned")
            key = row_group_key(tuple(row[i] for i in group_idx))
            if key not in groups:
                groups[key] = []
                order.append(key)
                reps[key] = row
            groups[key].append(row)

        out_columns = [schema.columns[i] for i in group_idx] + [
            Column(a.name) for a in self.aggs
        ]
        out_rows: List[Row] = []
        holds = [
            None if a.predicate is None else bind_truth(a.predicate, schema)
            for a in self.aggs
        ]
        for key in order:
            rows = groups[key]
            rep = reps[key]
            prefix = tuple(rep[i] for i in group_idx)
            agg_values: List[SqlValue] = []
            for spec, ai, test in zip(self.aggs, arg_idx, holds):
                if spec.func in ("bool_and", "bool_or"):
                    if test is None:
                        raise ExecutionError(f"{spec.func} needs a predicate")
                    outcome = TRUE if spec.func == "bool_and" else FALSE
                    for row in rows:
                        t = test(row)
                        outcome = (outcome & t) if spec.func == "bool_and" else (outcome | t)
                    agg_values.append(tri_value(outcome))
                elif spec.func == "count_star":
                    agg_values.append(len(rows))
                else:
                    values = [
                        row[ai] for row in rows if ai is not None and not is_null(row[ai])
                    ]
                    agg_values.append(_finish(spec.func, values, len(rows)))
            out_rows.append(prefix + tuple(agg_values))
        return Relation.adopt(Schema(out_columns), out_rows)


def scalar_aggregate(source: Relation, spec: AggSpec) -> SqlValue:
    """Aggregate an entire relation to a single value (no grouping)."""
    result = GroupAggregate(source, [], [spec]).run()
    if not result.rows:
        # No input rows at all: COUNT -> 0, others -> NULL.
        return 0 if spec.func in ("count", "count_star") else NULL
    return result.rows[0][0]
