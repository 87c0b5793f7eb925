"""The columnar operator factory plugged into Algorithm 1.

:class:`VectorBackend` implements the same protocol as
:class:`repro.core.backend.RowBackend` but every intermediate result is
a :class:`~repro.engine.vector.batch.Batch`.  Block reduction executes
the *shared* :class:`~repro.core.reduce.BlockJoinPlan` — the join order
and predicate placement are decided once, syntactically, so the two
backends cannot diverge semantically; only the physical kernels differ.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ...core import query_tree
from ...core.plancache import ReduceMemo
from ...core.reduce import ReduceStep, group_block
from ..catalog import Database
from ..governor import charge_batch, checkpoint
from ..metrics import current_metrics
from ..schema import Column
from ..trace import CONTRACT_FILTERING, CONTRACT_PRESERVING, note_rows, op_span
from .batch import Batch, table_batch
from .column import KIND_INT, Vector
from . import kernels, nestlink


class VectorBackend:
    """Columnar batch execution substrate for the nested strategies:
    every kernel runs once over its whole input, on the calling thread."""

    kind = "vector"

    # -- step one ------------------------------------------------------- #

    def reduce_all(
        self, steps: Sequence[ReduceStep], db: Database
    ) -> Dict[int, Batch]:
        return {s.block.index: self._reduce_block(s, db) for s in steps}

    def _reduce_block(self, step: ReduceStep, db: Database) -> Batch:
        checkpoint("reduce-block")
        block = step.block
        # the image depends only on the join plan, the base tables and
        # the logic mode, and it carries its rid: a hit is T_i, ready
        # to use.  A grouped block's image is the plain join (rid
        # None), aggregated and numbered here, per execution.
        rid = None if step.grouped else step.rid
        memo = ReduceMemo(step.join, self.kind, rid)
        with op_span(
            f"reduce[T{block.index}]",
            kind="phase",
            tables=",".join(block.alias_list),
            cache=memo.state,
        ) as span:
            build = lambda: self._execute_join_plan(step.join, db)
            if step.grouped:
                # the row-side aggregation, outside the cached image
                grouped = group_block(block, memo.image(build).to_relation())
                current = _with_rid(
                    Batch.from_relation(grouped.project(block.group_by)),
                    step.rid,
                )
            else:
                current = memo.image(lambda: _with_rid(build(), rid))
            note_rows(span, len(current))
        return current

    def _execute_join_plan(self, plan, db: Database) -> Batch:
        """Run one block's scan/filter/join pipeline (cache-oblivious)."""
        parts: Dict[str, Batch] = {}
        for alias, table_name in plan.table_names:
            checkpoint("scan")
            batch = table_batch(db.table(table_name))
            charge_batch(batch, f"table materialization ({table_name})")
            if alias != table_name:
                batch = batch.rename_table(alias)
            batch = kernels.scan(batch, alias)
            pred = plan.scan_filter(alias)
            if pred is not None:
                batch = kernels.filter_batch(batch, pred)
            parts[alias] = batch
        current = parts[plan.aliases[0]]
        for step in plan.steps:
            checkpoint("join-step")
            if step.left_keys:
                current = kernels.hash_join(
                    current,
                    parts[step.alias],
                    step.left_keys,
                    step.right_keys,
                    step.residual,
                )
            else:
                current = kernels.cross_join(
                    current, parts[step.alias], step.residual
                )
        if plan.final_residual is not None:
            current = kernels.filter_batch(current, plan.final_residual)
        return current

    # -- way down ------------------------------------------------------- #

    def left_outer_join(
        self, rel: Batch, child: Batch, node: query_tree.OuterJoin
    ) -> Batch:
        if node.cross:
            return kernels.outer_cross_join(rel, child)
        return kernels.left_outer_hash_join(
            rel, child, node.outer_keys, node.inner_keys, node.residual
        )

    # -- way up --------------------------------------------------------- #

    def nest_link(self, rel: Batch, node: query_tree.NestLink) -> Batch:
        # the fused kernel reads members straight off the flat batch, so
        # the row backend's explicit ``keep`` projection is unnecessary
        return nestlink.nest_link(rel, node)

    def join_nest(
        self,
        rel: Batch,
        child: Batch,
        join: query_tree.OuterJoin,
        nest: query_tree.NestLink,
    ) -> Batch:
        if join.cross:
            rel = self.left_outer_join(rel, child, join)
            checkpoint("nest")
            return self.nest_link(rel, nest)
        return nestlink.join_nest(rel, child, join, nest)

    # -- virtual Cartesian product -------------------------------------- #

    def uncorrelated_link(
        self, rel: Batch, sub: Batch, node: query_tree.UncorrelatedLink
    ) -> Batch:
        return nestlink.uncorrelated_link(rel, sub, node)

    # -- disjunctive residual ------------------------------------------- #

    def apply_residual(self, rel: Batch, node: query_tree.Residual) -> Batch:
        """Apply a block's disjunctive linking residual over its marks
        (ordinary boolean vectors), then select on the batch projected
        onto ``node.names``, the consumed marks dropped."""
        from .exprs import eval_truth

        n = len(rel)
        with op_span(
            "vec-linking-residual",
            contract=(
                CONTRACT_FILTERING if node.strict else CONTRACT_PRESERVING
            ),
            pred=repr(node.expr),
        ) as span:
            current_metrics().add("linking_evals", n)
            t, f = eval_truth(node.expr, rel)
            out = nestlink.select(rel.project(node.names), None, t, f, node)
            note_rows(span, len(out), n)
        return out

    # -- output --------------------------------------------------------- #

    def finalize(self, rel: Batch, node: query_tree.Finalize):
        out = rel.project(node.select_refs, node.schema).to_relation()
        if node.distinct:
            out = out.distinct()
        return out


def _with_rid(batch: Batch, rid: str) -> Batch:
    """*batch* with the rid column ``0, 1, …`` on the right."""
    n = len(batch)
    return batch.with_column(
        Column(rid, not_null=True),
        Vector(KIND_INT, np.arange(n, dtype=np.int64), np.ones(n, bool)),
    )
