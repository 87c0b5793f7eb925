"""Plan explanation: render the nested relational evaluation as the
operator tree of the paper's Figure 3(b).

There is no second copy of Algorithm 1 here.  The driver
(:mod:`repro.core.compute`) plans a query once, as physical operator
nodes hung on its tree expression (:mod:`repro.core.query_tree`);
execution folds over those nodes and :func:`render_plan` prints them —
over symbolic leaves, so no data is touched.  The text is the operator
pipeline bottom-to-top the way the paper draws query trees: base
relations with their pushed-down selections, the (outer) joins
introduced for correlations, each ``nest`` with its nesting/nested
attribute lists, each linking/pseudo selection with its predicate, and
the final projection.  Whatever the planner decides — strict σ or pseudo
σ*, which rule fires at which edge — is what the text shows and what
the execution does, because both read the same nodes.

:func:`plan_text` asks the instance a resolved request runs; one without
an ``explain`` method answers with its registry description, so examples
and the CLI can show a plan for anything the planner can run.
"""

from __future__ import annotations

from typing import List, Sequence

from ..engine.catalog import Database
from ..engine.expressions import Col, Comparison, split_conjuncts
from .blocks import LinkSpec, NestedQuery
from .linking import SetPredicate
from .optimizer import PlannerDecision
from .query_tree import (
    FusedLink,
    NestLink,
    PushdownLink,
    SemiJoin,
    TreeEdge,
    TreeExpression,
    TreeNode,
    UncorrelatedLink,
)


def render_plan(tree: TreeExpression) -> str:
    """Figure 3(b) for a planned tree expression."""
    return "\n".join(_Printer(tree).lines)


class _Printer:
    """Below each block's ``T_i`` line, the operators applied to it, last
    applied first; an operator that connects a child block is followed
    by the child, indented."""

    def __init__(self, tree: TreeExpression):
        nodes = list(tree.root.walk())
        self._rids = {node.reduce.rid_ref for node in nodes}
        self._block_of = {
            alias: node.index for node in nodes for alias in node.block.tables
        }
        out = tree.finalize
        self.lines = [
            f"π {', '.join(out.select_refs)}"
            + ("  (DISTINCT)" if out.distinct else "")
        ]
        self._node(tree.root, 1)

    def _node(self, node: TreeNode, depth: int, fused=None, level=0) -> None:
        """*fused* is the :class:`FusedLink` of the run *node* is joined
        into, *level* the node's position in that run."""
        pad = "  " * depth
        block = node.block
        selection = (
            ""
            if block.local_predicate is None
            else f" sel[{block.local_predicate!r}]"
        )
        self.lines.append(f"{pad}{node.label}{selection}")
        if node.residual is not None:
            op = node.residual
            self.lines.append(
                pad + self._sigma(repr(op.expr), op.strict, op.pad_refs)
            )
        for edge in reversed(node.children):
            run = edge.up if isinstance(edge.up, FusedLink) else fused
            self.lines.extend(
                pad + line for line in self._edge(edge, run, level)
            )
            in_line = not edge.sub_first and run is not None
            self._node(
                edge.child,
                depth + 1,
                run if in_line else None,
                level + 1 if in_line else 0,
            )

    def _edge(self, edge: TreeEdge, fused, level: int) -> List[str]:
        """The operators connecting one child block, top to bottom."""
        op, up = edge.connect, edge.up
        if isinstance(op, UncorrelatedLink):
            return [
                self._selection(op),
                "× (virtual Cartesian product — executed once)",
            ]
        if isinstance(op, SemiJoin):
            return [f"⋉ {self._conditions(op)}"]
        if isinstance(op, PushdownLink):
            by = list(dict.fromkeys(op.inner_keys))
            return [
                self._selection(op),
                f"⋈ {self._conditions(op)}",
                f"υ-pushdown by[{', '.join(by)}] "
                f"keep[{', '.join(r for r in op.keep if r not in by)}]",
            ]
        join = "×" if op.cross else f"⟕ {self._conditions(op)}"
        if isinstance(up, NestLink):
            return [
                self._selection(up),
                f"υ by[{self._attrs(up.by)}] keep[{', '.join(up.keep)}]",
                join,
            ]
        # a level of a fused run: below the outermost link a failing tuple
        # is a dead member of the group above — σ* without the padding pass
        text = _link_text(
            fused.predicates[level], fused.links[level],
            fused.rid_refs[level + 1],
        )
        if level:
            return [f"σ* {text}", join]
        return [
            f"υ single pass: one sort by [{', '.join(fused.rid_refs[:-1])}], "
            "every link in one scan",
            f"σ {text}",
            join,
        ]

    def _conditions(self, op) -> str:
        """The join condition, outermost referenced block first."""
        conds = [(o, "=", i) for o, i in zip(op.outer_keys, op.inner_keys)]
        texts = []
        residual = getattr(op, "residual", None)
        for expr in split_conjuncts(residual) if residual is not None else ():
            if (
                isinstance(expr, Comparison)
                and isinstance(expr.left, Col)
                and isinstance(expr.right, Col)
            ):
                conds.append((expr.left.ref, expr.op, expr.right.ref))
            else:
                texts.append(repr(expr))
        conds.sort(
            key=lambda c: self._block_of.get(c[0].rpartition(".")[0], 0)
        )
        return " ∧ ".join([f"{o} {op} {i}" for o, op, i in conds] + texts)

    def _attrs(self, refs: Sequence[str]) -> str:
        return ", ".join(r for r in refs if r not in self._rids)

    def _sigma(self, text: str, strict: bool, pad_refs: Sequence[str]) -> str:
        if strict:
            return f"σ {text}"
        return f"σ* {text} pad[{self._attrs(pad_refs)}]"

    def _selection(self, op) -> str:
        """A linking operator's σ / σ* / mark line."""
        text = _link_text(op.predicate, op.link, op.rid_ref)
        if op.link.mark is not None:
            return f"{op.link.mark} := {text}"
        return self._sigma(text, op.strict, op.pad_refs)


def _link_text(predicate: SetPredicate, link: LinkSpec, pk: str) -> str:
    if link.operator in ("exists", "not_exists"):
        target = "≠ ∅" if link.operator == "exists" else "= ∅"
        return f"{{{pk}}} {target}"
    return (
        f"{link.outer_ref} {link.effective_theta} "
        f"{predicate.quantifier.upper()} {{{link.inner_ref}}}"
    )


def plan_text(decision: PlannerDecision, query: NestedQuery, db: Database) -> str:
    """The operator tree of the instance *decision* runs.

    A strategy with an ``explain(query, db)`` method draws its own; the
    others answer with their registry description, so anything the
    planner can run has a plan text.
    """
    from .. import strategies as registry

    if hasattr(decision.impl, "explain"):
        return decision.impl.explain(query, db)
    name = decision.chosen
    if not registry.is_registered(name):
        return f"{name}: no plan text"
    return f"{name}: {registry.info(name).description}"

