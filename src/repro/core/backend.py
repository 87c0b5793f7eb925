"""Execution backends for the nested relational strategies.

Algorithm 1 (:mod:`repro.core.compute`) is written against a small
*operator factory* protocol instead of concrete physical operators, so
the same driver runs on two substrates:

* :class:`RowBackend` — the tuple-at-a-time row engine
  (:mod:`repro.engine.operators`), the library's original path;
* :class:`repro.engine.vector.backend.VectorBackend` — the columnar
  batch engine, where every method works on
  :class:`~repro.engine.vector.batch.Batch` objects.

Step 2 of Algorithm 1 plans a query as operator nodes hung on its tree
expression (:mod:`repro.core.query_tree`); step 3 hands each node to the
backend method the node names (``node.method``), together with the
relation accumulated so far and — for an operator that connects a child
block — the child's relation.  A node carries every argument of its
operator, decided statically, plus the column names of its output; a
backend never decides anything and is never asked what columns an
intermediate has.  A backend supplies:

``reduce_all(steps, db)``
    step one of Algorithm 1 — each block's
    :class:`~repro.core.reduce.ReduceStep` reduced to T_i (with its
    synthetic rid column) in the backend's native representation,
    keyed by block index.
``left_outer_join(rel, child, node)``
    the way-down join (:class:`~repro.core.query_tree.OuterJoin`): ⟕ on
    the child's correlated predicates, the outer × when there are none.
    On a ``witness`` node each left row keeps one qualifying pair, or
    its padding; only the row engine, which runs ``fuse-links``, has it.
``nest_link(rel, node)``
    the way-up pair (:class:`~repro.core.query_tree.NestLink`): ``nest``
    by the path attributes followed by a strict linking selection, a
    NULL-padding pseudo-selection or a mark.  The node holds both the
    nesting attributes ``by`` and the nest ``key`` (the path blocks'
    rids, which decide the same groups); a backend may group on either
    (the row engine's hash nest and the vector engine group on the key).
``join_nest(rel, child, join, nest)``
    a leaf block's way down and back up — the ``OuterJoin`` and the
    ``NestLink`` of an edge whose child has no children and runs in
    line, with nothing between them.  The result, every span, metric
    and governor charge must be those of ``left_outer_join`` followed
    by ``nest_link`` (with the ``nest`` checkpoint between), which is
    what the row engine does; the vector engine nests the join without
    building it.
``uncorrelated_link(rel, sub, node)``
    the virtual-Cartesian-product shortcut
    (:class:`~repro.core.query_tree.UncorrelatedLink`) — the subquery
    result is shared by every outer tuple.
``apply_residual(rel, node)``
    a block's disjunctive combination of its marks
    (:class:`~repro.core.query_tree.Residual`).
``finalize(rel, node)``
    project to the SELECT list (:class:`~repro.core.query_tree.Finalize`)
    and return a plain :class:`~repro.engine.relation.Relation`.

``nest_link``, ``uncorrelated_link`` and ``apply_residual`` differ only
in how they judge each row: all three end in the backend's one σ / σ* /
mark tail, :func:`repro.core.selection.select` here and
:func:`repro.engine.vector.nestlink.select` on the vector engine.

The §4.2 rules of the driver each need one more physical operator; a
backend that lacks the method cannot run the rule (the strategy
constructor checks), and today only the row engine has them:

``fused_link(rel, node)``
    *fuse-links* — one sort + one scan evaluating every link of a
    joined run (§4.2.1-2; :class:`~repro.core.query_tree.FusedLink`).
``pushdown_link(rel, child, node)``
    *nest-pushdown* — nest the child by its join attributes, probe per
    outer tuple (§4.2.4; :class:`~repro.core.query_tree.PushdownLink`).
``semi_join(rel, child, node)``
    *semijoin-positive* — a positive link as a semijoin (§4.2.5;
    :class:`~repro.core.query_tree.SemiJoin`).

The driver never inspects rows or columns itself, so semantics are fixed
by the shared plan and the backends can only differ in physical layout
and cost.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from ..engine.catalog import Database
from ..engine.expressions import bind_truth
from ..engine.governor import checkpoint
from ..engine.operators import (
    left_outer_hash_join,
    outer_cross_join,
    semi_join,
    witness_join,
)
from ..engine.relation import BuildKeepingRelation, Relation, Row, projector
from ..engine.trace import note_rows, op_span
from ..engine.types import NULL, TriBool
from .nest import nest_by_key, nest_sorted
from .plancache import ReduceMemo
from . import query_tree
from .reduce import (
    ReduceStep,
    execute_join_plan,
    group_rows,
    reduce_relation,
    with_rid,
)
from .selection import (
    fused_linking_selection,
    judge,
    nested_selection,
    pushdown_linking_selection,
    select,
)


class RowBackend:
    """The Algorithm 1 steps on the tuple-at-a-time row operators."""

    kind = "row"

    # -- step one ------------------------------------------------------- #

    def reduce_all(
        self, steps: Sequence[ReduceStep], db: Database
    ) -> Dict[int, Relation]:
        return {step.block.index: self._reduce(step, db) for step in steps}

    def _reduce(self, step: ReduceStep, db: Database) -> Relation:
        """T_i from the session's reduce memo, built on a miss.

        The image is T_i, ready to use: it carries its rid (and is keyed
        with it) and keeps the hash builds made on it, so a hit builds
        no row and its joins only probe.  A grouped block's image is the
        plain join (key rid None), aggregated and numbered here, per
        execution.  A bare scan is not memoized: nothing is built, and
        an image would pin a second copy of the base table's rows."""
        plan = step.join
        if plan.is_bare_scan:
            return reduce_relation(step, db)
        block = step.block
        build = lambda: execute_join_plan(plan, db)
        with op_span(
            f"reduce[T{block.index}]",
            kind="phase",
            tables=",".join(block.alias_list),
        ) as span:
            checkpoint("reduce")
            if step.grouped:
                joined = ReduceMemo(plan, self.kind).image(build)
                reduced = with_rid(group_rows(block, joined), step.rid)
            else:
                reduced = ReduceMemo(plan, self.kind, step.rid).image(
                    lambda: with_rid(build(), step.rid, BuildKeepingRelation)
                )
            note_rows(span, len(reduced.rows))
        return reduced

    # -- way down ------------------------------------------------------- #

    def left_outer_join(
        self, rel: Relation, child: Relation, node: query_tree.OuterJoin
    ) -> Relation:
        if node.cross:
            if node.witness:
                # any one row of the child witnesses a non-empty set
                child = Relation.adopt(child.schema, child.rows[:1])
            return outer_cross_join(rel, child)
        join = witness_join if node.witness else left_outer_hash_join
        return join(
            rel, child, list(node.outer_keys), list(node.inner_keys),
            residual=node.residual,
        )

    # -- way up --------------------------------------------------------- #

    def nest_link(self, rel: Relation, node: query_tree.NestLink) -> Relation:
        if node.nest_impl == "sorted":
            nested = nest_sorted(rel, node.by, node.keep)
        else:
            nested = nest_by_key(rel, node.by, node.keep, node.key)
        link = node.link
        return nested_selection(
            nested, node.predicate, link.outer_ref, link.inner_ref,
            node.rid_ref, strict=node.strict, pad_refs=node.pad_refs,
            mark_ref=link.mark,
        )

    def join_nest(
        self,
        rel: Relation,
        child: Relation,
        join: query_tree.OuterJoin,
        nest: query_tree.NestLink,
    ) -> Relation:
        rel = self.left_outer_join(rel, child, join)
        checkpoint("nest")
        return self.nest_link(rel, nest)

    # -- the §4.2 rules' operators --------------------------------------- #

    def fused_link(self, rel: Relation, node: query_tree.FusedLink) -> Relation:
        return fused_linking_selection(rel, node)

    def pushdown_link(
        self, rel: Relation, child: Relation, node: query_tree.PushdownLink
    ) -> Relation:
        return pushdown_linking_selection(rel, child, node)

    def semi_join(
        self, rel: Relation, child: Relation, node: query_tree.SemiJoin
    ) -> Relation:
        return semi_join(
            rel, child, list(node.outer_keys), list(node.inner_keys),
            residual=node.residual,
        )

    # -- virtual Cartesian product -------------------------------------- #

    def uncorrelated_link(
        self, rel: Relation, sub: Relation, node: query_tree.UncorrelatedLink
    ) -> Relation:
        link = node.link
        rid_pos = sub.schema.index_of(node.rid_ref)
        if link.inner_ref is not None:
            val_pos = sub.schema.index_of(link.inner_ref)
            members = [(row[val_pos], row[rid_pos]) for row in sub.rows]
        else:
            members = [(NULL, row[rid_pos]) for row in sub.rows]
        lhs_pos = (
            rel.schema.index_of(link.outer_ref)
            if link.outer_ref is not None
            else None
        )
        holds = node.predicate.bind()

        def verdict(row: Row) -> Tuple[Row, TriBool]:
            return row, holds(
                row[lhs_pos] if lhs_pos is not None else NULL, members
            )

        return select(
            "uncorrelated-link", rel.schema, judge(rel.rows, verdict),
            len(rel.rows), node.strict, node.pad_refs, link.mark,
            pred=node.predicate.describe(),
            **({"mark": link.mark} if link.mark is not None else {}),
        )

    # -- disjunctive residual ------------------------------------------- #

    def apply_residual(self, rel: Relation, node: query_tree.Residual) -> Relation:
        """A block's disjunctive linking residual over its marks: SQL
        truth over mark columns and plain predicates, judged on each row
        projected onto ``node.names`` (the consumed marks dropped)."""
        holds = bind_truth(node.expr, rel.schema)
        keep = projector(rel.schema.indices_of(node.names))

        def verdict(row: Row) -> Tuple[Row, TriBool]:
            return keep(row), holds(row)

        return select(
            "linking-residual", rel.schema.project(node.names),
            judge(rel.rows, verdict), len(rel.rows), node.strict,
            node.pad_refs, None, pred=repr(node.expr),
        )

    # -- output --------------------------------------------------------- #

    def finalize(self, rel: Relation, node: query_tree.Finalize) -> Relation:
        out = rel.project(node.select_refs, node.schema)
        if node.distinct:
            out = out.distinct()
        return out
