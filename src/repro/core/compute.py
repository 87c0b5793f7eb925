"""Algorithm 1 — the original nested relational approach (paper §4.1).

Processing a nested query with non-aggregate subqueries:

1. **Reduce** every block to a single relation T_i = σ_Δi(R_i)
   (:mod:`repro.core.reduce`).
2. **Tree expression**: one node per block, edges labelled with the
   linking predicate L_i and the correlated predicates C_ij.  Because SQL
   correlation always references *enclosing* blocks, attaching every C_ij
   of block i to the edge entering block i is a maximal spanning query
   tree in the paper's sense: by the time block i is joined, the
   attributes of every enclosing block are already present in the
   accumulated relation.
3. **compute(root, T_1)**: walk the tree depth-first.  Going *down*, join
   (or left-outer-join, when correlated) the accumulated relation with
   each child's T_i.  Coming back *up*, ``nest`` the relation by the
   attributes of the blocks on the path (grouping on their rids, which
   determine those attributes) and apply the child's linking
   predicate as a linking selection — strict σ where discarding failing
   tuples is safe (at the root, or when every unfinished linking
   predicate above is positive), pseudo σ* (padding the current node's
   attributes with NULLs) otherwise.

Non-correlated subqueries are executed once and their result set shared
by every outer tuple — the paper's "virtual Cartesian product".  Set
``virtual_cartesian=False`` to run the textbook algorithm with a real
Cartesian product instead (useful for differential testing).

The approach needs no indexes: only hash (outer) joins, nest and linking
selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PlanError
from ..strategies import register
from ..engine.catalog import Database
from ..engine.expressions import conjoin
from ..engine.governor import checkpoint
from ..engine.relation import Relation
from .backend import RowBackend
from .optimizer import cost_nested_relational, cost_nested_relational_sorted
from .blocks import AGG_OP, LinkSpec, NestedQuery, QueryBlock
from .linking import SetPredicate
from .reduce import ReducedBlock


def set_predicate_for(link: LinkSpec) -> SetPredicate:
    """Translate a linking operator into its set predicate.

    EXISTS -> {B} ≠ ∅, NOT EXISTS -> {B} = ∅, IN -> = SOME,
    NOT IN -> <> ALL, θ SOME/ALL -> themselves, and aggregate links to
    ``lhs θ agg({B})`` over the nested group.
    """
    if link.operator in ("exists", "not_exists"):
        return SetPredicate(link.operator)
    if link.operator == AGG_OP:
        return SetPredicate(
            "agg",
            link.theta,
            agg_func=link.agg_func,
            const=link.outer_const,
        )
    return SetPredicate(link.quantifier, link.effective_theta)


@register(
    "nested-relational",
    description="Algorithm 1: reduce, outer-join down, nest + link up (§4.1)",
    cost=cost_nested_relational,
)
class NestedRelationalStrategy:
    """The original nested relational approach (Algorithm 1).

    Parameters
    ----------
    virtual_cartesian:
        execute non-correlated subqueries once and share the result
        (paper: "non-correlated subqueries are executed once, and the
        result is used by every tuple").  When False, a real Cartesian
        product is used, as in the bare algorithm statement.
    nest_impl:
        ``"hash"`` or ``"sorted"`` — the two physical nest
        implementations (paper Section 5.1 used sorting).
    strict_when_positive:
        apply the paper's refinement that strict σ may replace pseudo σ*
        when every unfinished linking predicate above is positive.
    backend:
        the operator factory executing the plan — defaults to the
        row-iterator engine (:class:`repro.core.backend.RowBackend`);
        the columnar engine plugs in here
        (:class:`repro.engine.vector.backend.VectorBackend`).
    """

    name = "nested-relational"

    def __init__(
        self,
        virtual_cartesian: bool = True,
        nest_impl: str = "hash",
        strict_when_positive: bool = True,
        backend=None,
    ):
        if nest_impl not in ("hash", "sorted"):
            raise PlanError(f"unknown nest implementation {nest_impl!r}")
        self.virtual_cartesian = virtual_cartesian
        self.nest_impl = nest_impl
        self.strict_when_positive = strict_when_positive
        self.backend = backend if backend is not None else RowBackend()

    # ------------------------------------------------------------------ #

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        """Evaluate *query* against *db*, returning the result relation."""
        backend = self.backend
        checkpoint("reduce")
        reduced = backend.reduce_all(query, db)
        owner = _attr_owner_map(reduced)
        root = query.root
        rel = reduced[root.index].relation
        rel = self._compute(root, rel, [root], reduced, owner)
        checkpoint("finalize")
        return backend.finalize(rel, root.select_refs, root.distinct)

    # ------------------------------------------------------------------ #

    def _compute(
        self,
        node: QueryBlock,
        rel,
        path: List[QueryBlock],
        reduced: Dict[int, ReducedBlock],
        owner: Dict[str, int],
    ):
        """The recursive body of Algorithm 1 (compute(node, rel)).

        *rel* is whatever the backend's native intermediate is (a
        :class:`Relation` for rows, a Batch for the vector engine); the
        driver only ever hands it back to the backend.
        """
        backend = self.backend
        for child in node.children:
            checkpoint("operator")
            link = child.link
            assert link is not None
            crel = reduced[child.index]
            if self.virtual_cartesian and _subtree_uncorrelated(child):
                rel = self._apply_uncorrelated(
                    node, child, rel, path, reduced, owner
                )
                continue

            # -- way down: connect the child block ---------------------- #
            if child.correlations:
                equi = [c for c in child.correlations if c.is_equality]
                other = [c for c in child.correlations if not c.is_equality]
                residual = conjoin([c.as_expr() for c in other]) if other else None
                rel = backend.left_outer_join(
                    rel,
                    crel.relation,
                    [c.outer_ref for c in equi],
                    [c.inner_ref for c in equi],
                    residual,
                )
            else:
                rel = backend.outer_cross_join(rel, crel.relation)

            # -- recurse into the child's own subqueries ---------------- #
            rel = self._compute(child, rel, path + [child], reduced, owner)

            # -- way up: nest and apply the linking selection ------------ #
            names = backend.names(rel)
            path_indices = {b.index for b in path}
            by = [ref for ref in names if owner.get(ref) in path_indices]
            # Nest by key.  `by` (N1) is what the nest projects onto; the
            # rids of the path blocks alone decide the groups, because
            # equality on them is equality on all of `by`: (i) every rid
            # is itself in `by`; (ii) a block's attributes are a function
            # of its rid (the paper's primary-key assumption); (iii) the
            # outer join and every σ* NULL a block's columns
            # all-or-nothing — `pad` below is the node's whole share of
            # `by`, rid and earlier marks included — so a padded tuple
            # has a NULL rid and a mark is constant per key.  (Inside an
            # uncorrelated subtree the enclosing blocks are not in `rel`.)
            rids = [reduced[b.index].rid_ref for b in path]
            key = [rid for rid in rids if rid in names]
            keep = _dedupe(
                ([link.inner_ref] if link.inner_ref is not None else [])
                + [crel.rid_ref]
            )
            strict = self._use_strict(path)
            pad = (
                []
                if strict
                else [r for r in by if owner.get(r) == node.index]
            )
            checkpoint("nest")
            rel = backend.nest_link(
                rel,
                by,
                key,
                keep,
                set_predicate_for(link),
                link,
                crel.rid_ref,
                strict,
                pad,
                self.nest_impl,
            )
            if link.mark is not None:
                # the mark column now rides with the current node's
                # attributes: siblings must group by it and the node's
                # pseudo-selections must pad it
                owner[link.mark] = node.index
        if node.residual is not None:
            checkpoint("operator")
            marks = {
                c.link.mark
                for c in node.children
                if c.link is not None and c.link.mark is not None
            }
            strict = self._use_strict(path)
            pad = (
                []
                if strict
                else [
                    r
                    for r in backend.names(rel)
                    if owner.get(r) == node.index and r not in marks
                ]
            )
            rel = backend.apply_residual(
                rel, node.residual, strict, pad, sorted(marks)
            )
        return rel

    def _use_strict(self, path: List[QueryBlock]) -> bool:
        """Strict σ is sound at the root, and (optionally) when every
        unfinished linking predicate above the current node is positive."""
        links_above = [b.link for b in path if b.link is not None]
        if not links_above:
            return True
        if self.strict_when_positive:
            return all(l.is_positive for l in links_above)
        return False

    # ------------------------------------------------------------------ #
    # Non-correlated subqueries: execute once, share the result.
    # ------------------------------------------------------------------ #

    def _apply_uncorrelated(
        self,
        node: QueryBlock,
        child: QueryBlock,
        rel,
        path: List[QueryBlock],
        reduced: Dict[int, ReducedBlock],
        owner: Dict[str, int],
    ):
        backend = self.backend
        link = child.link
        assert link is not None
        crel = reduced[child.index]
        sub = self._compute(
            child, crel.relation, path + [child], reduced, owner
        )
        strict = self._use_strict(path)
        pad = [
            ref
            for ref in backend.names(rel)
            if owner.get(ref) == node.index
        ]
        rel = backend.uncorrelated_link(
            rel,
            sub,
            set_predicate_for(link),
            link,
            crel.rid_ref,
            strict,
            pad,
        )
        if link.mark is not None:
            owner[link.mark] = node.index
        return rel


register(
    "nested-relational-sorted",
    description="Algorithm 1 with the sort-based physical nest (§5.1)",
    cost=cost_nested_relational_sorted,
)(lambda: NestedRelationalStrategy(nest_impl="sorted"))


def _subtree_uncorrelated(block: QueryBlock) -> bool:
    """True when no block in *block*'s subtree correlates outside of it."""
    subtree_aliases: Set[str] = set()
    for b in block.walk():
        subtree_aliases.update(b.tables.keys())
    for b in block.walk():
        for corr in b.correlations:
            outer_table = corr.outer_ref.rpartition(".")[0]
            if outer_table not in subtree_aliases:
                return False
    return True


def _attr_owner_map(reduced: Dict[int, ReducedBlock]) -> Dict[str, int]:
    """Map every qualified attribute name to the index of its block."""
    owner: Dict[str, int] = {}
    for idx, rb in reduced.items():
        for ref in rb.attr_refs:
            if ref in owner:
                raise PlanError(
                    f"attribute {ref!r} appears in blocks {owner[ref]} and {idx}"
                )
            owner[ref] = idx
    return owner


def _dedupe(refs: Sequence[str]) -> List[str]:
    seen: Set[str] = set()
    out: List[str] = []
    for r in refs:
        if r not in seen:
            seen.add(r)
            out.append(r)
    return out
