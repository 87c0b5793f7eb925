"""Plan explanation: render the nested relational evaluation as the
operator tree of the paper's Figure 3(b).

There is no second copy of Algorithm 1 here.  :class:`DescribeBackend`
implements the backend protocol of :mod:`repro.core.backend` by *drawing*
each operator instead of executing it, and a strategy's ``explain`` runs
the real driver (:mod:`repro.core.compute`) over it — no data touched.
The text is the operator pipeline bottom-to-top the way the paper draws
query trees: base relations with their pushed-down selections, the
(outer) joins introduced for correlations, each ``nest`` with its
nesting/nested attribute lists, each linking/pseudo selection with its
predicate, and the final projection.  Whatever the driver decides —
strict σ or pseudo σ*, which rule fires at which edge — is what the
text shows, because the text *is* that run.

:func:`explain` resolves a strategy name and asks the strategy; one
without an ``explain`` method answers with its registry description, so
examples and the CLI can show a plan for anything the planner can run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..engine.catalog import Database
from ..engine.expressions import Col, Comparison, split_conjuncts
from .blocks import LinkSpec, NestedQuery
from .linking import SetPredicate
from .reduce import ReducedBlock, rid_name


class _Group:
    """The operators connecting one child block, drawn top to bottom
    above the child.  A group stays *open* from its way-down join until
    the way up closes it."""

    def __init__(self, lines: List[str], child: Optional["_Drawn"], open_: bool):
        self.lines = lines
        self.child = child
        self.open = open_


class _Drawn:
    """One block of the drawn tree: its ``T_i`` line and, in application
    order, the groups of the blocks connected to it."""

    def __init__(self, head: str):
        self.head = head
        self.groups: List[_Group] = []

    def open_groups(self) -> List[_Group]:
        """The unfinished edges below this block, outermost first."""
        out: List[_Group] = []
        block = self
        while block.groups and block.groups[-1].open:
            out.append(block.groups[-1])
            block = block.groups[-1].child
        return out

    def attach(self, lines: List[str], child: Optional["_Drawn"], open_: bool):
        """Connect *child* below the innermost block still being joined
        down — where Algorithm 1's accumulated relation grows."""
        unfinished = self.open_groups()
        under = unfinished[-1].child if unfinished else self
        under.groups.append(_Group(lines, child, open_))

    def render(self, depth: int, out: List[str]) -> None:
        out.append("  " * depth + self.head)
        for group in reversed(self.groups):
            out.extend("  " * depth + line for line in group.lines)
            if group.child is not None:
                group.child.render(depth + 1, out)


class Sketch:
    """The describing backend's intermediate result: the column names
    the driver reasons about, and the tree drawn so far (shared, grown in
    place — the driver uses every intermediate exactly once)."""

    def __init__(self, names: Sequence[str], tree: _Drawn):
        self.names = list(names)
        self.tree = tree


class DescribeBackend:
    """The backend protocol, emitting Figure 3(b) lines.

    A block's attributes are two symbolic columns, ``attrs(T_i)`` and its
    rid: all the driver needs to derive ``by`` / ``pad`` lists, and how
    the paper's figures abbreviate them.
    """

    kind = "describe"

    def reduce_all(self, query: NestedQuery, db: Optional[Database]):
        reduced: Dict[int, ReducedBlock] = {}
        self._rids = {rid_name(block) for block in query.root.walk()}
        self._block_of = {
            alias: block.index
            for block in query.root.walk()
            for alias in block.tables
        }
        for block in query.root.walk():
            rid = rid_name(block)
            attrs = (f"attrs(T{block.index})", rid)
            tables = ", ".join(
                name if alias == name else f"{name} {alias}"
                for alias, name in block.tables.items()
            )
            selection = (
                ""
                if block.local_predicate is None
                else f" sel[{block.local_predicate!r}]"
            )
            tree = _Drawn(f"T{block.index}: {tables}{selection}")
            reduced[block.index] = ReducedBlock(
                block, Sketch(attrs, tree), rid, attrs
            )
        return reduced

    def names(self, rel: Sketch) -> Sequence[str]:
        return rel.names

    def _conditions(self, outer_keys, inner_keys, residual) -> str:
        """The join condition, outermost referenced block first."""
        conds = [(o, "=", i) for o, i in zip(outer_keys, inner_keys)]
        texts = []
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

    def _selection(self, predicate, link, rid_ref, strict, pad_refs) -> str:
        text = _link_text(predicate, link, rid_ref)
        if link.mark is not None:
            return f"{link.mark} := {text}"
        if strict:
            return f"σ {text}"
        return f"σ* {text} pad[{self._attrs(pad_refs)}]"

    # -- way down ------------------------------------------------------- #

    def left_outer_join(self, rel, child, outer_keys, inner_keys, residual):
        conds = self._conditions(outer_keys, inner_keys, residual)
        rel.tree.attach([f"⟕ {conds}"], child.tree, True)
        return Sketch(rel.names + child.names, rel.tree)

    def outer_cross_join(self, rel, child):
        rel.tree.attach(["×"], child.tree, True)
        return Sketch(rel.names + child.names, rel.tree)

    # -- way up --------------------------------------------------------- #

    def nest_link(
        self, rel, by, key, keep, predicate, link, rid_ref, strict,
        pad_refs, nest_impl,
    ):
        group = rel.tree.open_groups()[-1]
        group.lines[:0] = [
            self._selection(predicate, link, rid_ref, strict, pad_refs),
            f"υ by[{self._attrs(by)}] keep[{', '.join(keep)}]",
        ]
        group.open = False
        marks = [link.mark] if link.mark is not None else []
        return Sketch(list(by) + marks, rel.tree)

    def uncorrelated_link(
        self, rel, sub, predicate, link, rid_ref, strict, pad_refs
    ):
        rel.tree.attach(
            [
                self._selection(predicate, link, rid_ref, strict, pad_refs),
                "× (virtual Cartesian product — executed once)",
            ],
            sub.tree,
            False,
        )
        marks = [link.mark] if link.mark is not None else []
        return Sketch(rel.names + marks, rel.tree)

    def apply_residual(self, rel, residual, strict, pad_refs, mark_refs):
        line = (
            f"σ {residual!r}"
            if strict
            else f"σ* {residual!r} pad[{self._attrs(pad_refs)}]"
        )
        rel.tree.attach([line], None, False)
        return Sketch(
            [n for n in rel.names if n not in set(mark_refs)], rel.tree
        )

    # -- the §4.2 rules' operators --------------------------------------- #

    def fused_link(self, rel, rid_refs, links, predicates):
        levels = rel.tree.open_groups()
        for level, group in enumerate(levels):
            text = _link_text(predicates[level], links[level], rid_refs[level + 1])
            # below the outermost link a failing tuple is a dead member
            # of the group above: σ* without the padding pass
            group.lines.insert(0, f"σ {text}" if level == 0 else f"σ* {text}")
            group.open = False
        levels[0].lines.insert(
            0,
            f"υ single pass: one sort by [{', '.join(rid_refs[:-1])}], "
            "every link in one scan",
        )
        return rel

    def pushdown_link(
        self, rel, child, outer_keys, inner_keys, keep, predicate, link,
        rid_ref,
    ):
        by = list(dict.fromkeys(inner_keys))
        rel.tree.attach(
            [
                self._selection(predicate, link, rid_ref, True, ()),
                f"⋈ {self._conditions(outer_keys, inner_keys, None)}",
                f"υ-pushdown by[{', '.join(by)}] "
                f"keep[{', '.join(r for r in keep if r not in by)}]",
            ],
            child.tree,
            False,
        )
        return rel

    def semi_join(self, rel, child, outer_keys, inner_keys, residual):
        conds = self._conditions(outer_keys, inner_keys, residual)
        rel.tree.attach([f"⋉ {conds}"], child.tree, False)
        return rel

    # -- output --------------------------------------------------------- #

    def finalize(self, rel, select_refs, distinct) -> str:
        lines = [
            f"π {', '.join(select_refs)}" + ("  (DISTINCT)" if distinct else "")
        ]
        rel.tree.render(1, lines)
        return "\n".join(lines)


def _link_text(predicate: SetPredicate, link: LinkSpec, pk: str) -> str:
    if link.operator in ("exists", "not_exists"):
        target = "≠ ∅" if link.operator == "exists" else "= ∅"
        return f"{{{pk}}} {target}"
    return (
        f"{link.outer_ref} {link.effective_theta} "
        f"{predicate.quantifier.upper()} {{{link.inner_ref}}}"
    )


def explain(query: NestedQuery, db: Database, strategy: str) -> str:
    """Plan text for the given strategy name.

    ``"auto"`` runs the cost-based planner and prefixes the chosen
    strategy's plan with the full candidate table (every applicable
    strategy, cheapest first, with estimated costs and cardinalities).
    A strategy with an ``explain(query, db)`` method draws its own
    operator tree; the others fall back to their registry description,
    so anything the planner can run has a plan text.
    """
    from .. import strategies as registry

    if strategy == registry.AUTO:
        from .optimizer import choose

        decision = choose(query, db)
        return (
            decision.describe()
            + "\n"
            + explain(query, db, decision.chosen)
        )
    impl = registry.make(strategy)
    if hasattr(impl, "explain"):
        return impl.explain(query, db)
    return f"{strategy}: {registry.info(strategy).description}"


def explain_analyze(
    query: NestedQuery,
    db: Database,
    strategy: str = "auto",
    timings: bool = True,
    return_trace: bool = False,
):
    """EXPLAIN ANALYZE: run the query and render the annotated span tree.

    Executes *query* under a tracing scope and returns the plan as it
    actually ran — one line per operator span with input/output row
    counts, operator-specific counters (hash-table sizes, peak group
    cardinality, null-padded rows, ...) and, unless *timings* is False
    (useful for deterministic golden files), inclusive wall-clock times.
    With *return_trace* the raw :class:`~repro.engine.trace.Trace` is
    returned alongside the text as ``(text, trace)``.
    """
    from ..engine.metrics import collect
    from ..engine.trace import render_trace
    from .planner import run_traced

    with collect() as metrics:
        result, trace = run_traced(query, db, strategy=strategy)
    lines = [f"EXPLAIN ANALYZE (strategy={strategy})"]
    lines.append(render_trace(trace, timings=timings))
    lines.append(
        f"{len(result)} row(s); weighted cost {metrics.weighted_cost()}"
    )
    text = "\n".join(lines)
    return (text, trace) if return_trace else text
