"""Algorithm 1 — the nested relational approach (paper §4.1) — and its
§4.2 refinements as *rules* over the one driver.

Processing a nested query with non-aggregate subqueries:

1. **Reduce** every block to a single relation T_i = σ_Δi(R_i)
   (:mod:`repro.core.reduce`).
2. **Tree expression**: one node per block, edges labelled with the
   linking predicate L_i and the correlated predicates C_ij.  Because SQL
   correlation always references *enclosing* blocks, attaching every C_ij
   of block i to the edge entering block i is a maximal spanning query
   tree in the paper's sense: by the time block i is joined, the
   attributes of every enclosing block are already present in the
   accumulated relation.  Here this step is also where everything is
   *decided*: :meth:`NestedRelationalStrategy.plan` hangs one small
   frozen node per physical operator on the tree
   (:mod:`repro.core.query_tree`) — join keys and residuals, the nesting
   attributes and the rid key, strict σ vs pseudo σ*, the padded
   attributes, which rule fires at which edge — from the column *names*
   of the T_i alone.
3. **compute(root, T_1)**: fold over that tree depth-first, handing each
   node to the backend.  Going *down*, join (or left-outer-join, when
   correlated) the accumulated relation with each child's T_i.  Coming
   back *up*, ``nest`` the relation by the attributes of the blocks on
   the path (grouping on their rids, which determine those attributes)
   and apply the child's linking predicate as a linking selection —
   strict σ where discarding failing tuples is safe, pseudo σ* (padding
   the current node's attributes with NULLs) otherwise.  EXPLAIN prints
   the same nodes (:func:`repro.core.explain.render_plan`).

The paper then refines that one algorithm; each refinement is a rule the
planner consults at the edge where it connects a child, and a strategy is
a *set* of rules (the registry's ``nested-relational-*`` names are
presets, see the bottom of this module):

``virtual-cartesian`` (§4.1)
    a non-correlated subquery is executed once and its result shared by
    every outer tuple, instead of a real Cartesian product.
``strict-when-positive`` (§4.1)
    strict σ also below the root, when every unfinished linking
    predicate above is positive.
``fuse-links`` (§4.2.1-2)
    no nest per level: the whole linear run is joined down first, then
    one sort by the rid chain and one scan evaluate every link.  Fires
    on linear, conjunctive queries; others run plain Algorithm 1.
``bottom-up`` (§4.2.3)
    the child subtree is evaluated *first*, as its own root, and only
    its qualified tuples are joined upward.  Needs every correlation to
    reach the adjacent outer block only (the sub-evaluation has no other
    block's attributes).
``nest-pushdown`` (§4.2.4, refines ``bottom-up``)
    υ(R ⋈ S) = R ⋈ υ(S) on a pure equi-correlation: nest the child by
    its join attributes, probe one group per outer tuple.
``semijoin-positive`` (§4.2.5, refines ``bottom-up``)
    σ_{AθSOME{B}}(υ(R ⟕_C S)) = R ⋉_{C ∧ AθB} S — the classical plan.
    Needs every link positive.

The approach needs no indexes: only hash (outer) joins, nest and linking
selections.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import PlanError
from ..strategies import register
from ..engine.catalog import Database
from ..engine.context import current
from ..engine.expressions import Col, Comparison, conjoin
from ..engine.governor import checkpoint
from ..engine.relation import Relation
from .backend import RowBackend
from .blocks import AGG_OP, LinkSpec, NestedQuery, QueryBlock
from .explain import render_plan
from .linking import SetPredicate
from .query_tree import (
    Finalize,
    FusedLink,
    Names,
    NestLink,
    OuterJoin,
    PushdownLink,
    Reduce,
    Residual,
    SemiJoin,
    TreeEdge,
    TreeExpression,
    TreeNode,
    UncorrelatedLink,
)
from .reduce import ReduceStep, reduce_step, rid_name

VIRTUAL_CARTESIAN = "virtual-cartesian"
STRICT_WHEN_POSITIVE = "strict-when-positive"
FUSE_LINKS = "fuse-links"
BOTTOM_UP = "bottom-up"
NEST_PUSHDOWN = "nest-pushdown"
SEMIJOIN_POSITIVE = "semijoin-positive"

#: Algorithm 1 as §4.1 states it; every preset starts from these two
DEFAULT_RULES = frozenset({VIRTUAL_CARTESIAN, STRICT_WHEN_POSITIVE})

#: the §4.2 rules: the backend method each one's physical operator lives
#: behind, and the line EXPLAIN puts above a plan the rule shaped
_REFINEMENTS = {
    FUSE_LINKS: (
        FusedLink.method,
        "single-pass pipeline: all nests fused into one sort by the rid "
        "chain; linking selections evaluated in one scan",
    ),
    BOTTOM_UP: (
        None,
        "bottom-up (linear correlation): every subquery is evaluated "
        "first, as its own root; only qualified tuples are joined upward",
    ),
    NEST_PUSHDOWN: (
        PushdownLink.method,
        "nest push-down: on a pure equi-correlation the child is nested "
        "by its join attributes before the join",
    ),
    SEMIJOIN_POSITIVE: (
        SemiJoin.method,
        "positive rewrite (semijoin chain): every positive link becomes "
        "a semijoin",
    ),
}


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


@dataclass(frozen=True)
class Planned:
    """Steps one and two of one query, as a
    :class:`~repro.core.plancache.PlanMemo` keeps
    them: each block's :class:`~repro.core.reduce.ReduceStep` (DFS
    order) and the annotated tree.  Executions only read it."""

    steps: Tuple[ReduceStep, ...]
    tree: TreeExpression


class NestedRelationalStrategy:
    """Algorithm 1 under a set of rules (see the module docstring).

    Parameters
    ----------
    rules:
        the rules in force, a subset of the six names above.  Leaving
        ``virtual-cartesian`` out runs the bare algorithm statement with
        a real Cartesian product; leaving ``strict-when-positive`` out
        keeps strict σ for the root only (both useful for differential
        testing).
    nest_impl:
        ``"hash"`` or ``"sorted"`` — the two physical nest
        implementations (paper Section 5.1 used sorting).
    backend:
        the operator factory executing the plan — defaults to the
        row engine (:class:`repro.core.backend.RowBackend`);
        the columnar engine plugs in here
        (:class:`repro.engine.vector.backend.VectorBackend`).
    """

    name = "nested-relational"

    def __init__(
        self,
        rules: Iterable[str] = DEFAULT_RULES,
        nest_impl: str = "hash",
        backend=None,
    ):
        if nest_impl not in ("hash", "sorted"):
            raise PlanError(f"unknown nest implementation {nest_impl!r}")
        self.rules = frozenset(rules)
        self.nest_impl = nest_impl
        self.backend = backend if backend is not None else RowBackend()
        unknown = self.rules - DEFAULT_RULES - set(_REFINEMENTS)
        if unknown:
            raise PlanError(
                f"unknown rule(s) {sorted(unknown)}; expected a subset of "
                f"{sorted(DEFAULT_RULES | set(_REFINEMENTS))}"
            )
        refining = self.rules & {NEST_PUSHDOWN, SEMIJOIN_POSITIVE}
        if refining and BOTTOM_UP not in self.rules:
            raise PlanError(
                f"{sorted(refining)} refine the bottom-up edge; "
                f"add {BOTTOM_UP!r}"
            )
        if {FUSE_LINKS, BOTTOM_UP} <= self.rules:
            raise PlanError(
                f"{FUSE_LINKS!r} and {BOTTOM_UP!r} both replace the way up; "
                "pick one"
            )
        for rule in self.rules & set(_REFINEMENTS):
            method = _REFINEMENTS[rule][0]
            if method is not None and not hasattr(self.backend, method):
                raise PlanError(
                    f"the {self.backend.kind!r} backend has no {method}; "
                    f"it cannot run rule {rule!r}"
                )

    # ------------------------------------------------------------------ #

    def applicable(
        self, query: NestedQuery, db: Optional[Database] = None
    ) -> Optional[str]:
        """Why this rule set cannot evaluate *query*; None when it can.

        The guards are whole-query: a rule set either runs every edge of
        the query or refuses it."""
        if SEMIJOIN_POSITIVE in self.rules:
            return _why_not_semijoin_chain(query)
        if BOTTOM_UP in self.rules:
            return _why_not_bottom_up(query)
        return None

    def _rules_for(self, query: NestedQuery) -> frozenset:
        """The rules that shape *query*'s plan; raises when a guard
        refuses it.  ``fuse-links`` stands down on tree and disjunctive
        queries: marked links need the residual combination step, and the
        single-pass dead-member trick only models conjunctive strictness
        along one spine."""
        reason = self.applicable(query)
        if reason is not None:
            raise PlanError(reason)
        if FUSE_LINKS in self.rules and (
            not query.is_linear or query.has_disjunction
        ):
            return self.rules - {FUSE_LINKS}
        return self.rules

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        """Evaluate *query* against *db*, returning the result relation.

        Steps one and two are decided once per strategy decision: the
        first execution plans each block's reduction, reduces, and plans
        the tree from the T_i names; later ones find both in the
        decision's :class:`~repro.core.plancache.PlanMemo` and only
        reduce (from the reduce memo, when it holds the images) and
        compute."""
        memo = current().plan_memo
        planned = memo.get(self, query) if memo is not None else None
        if planned is None:
            rules = self._rules_for(query)
            steps = tuple(reduce_step(b) for b in query.root.walk())
        else:
            steps = planned.steps
        backend = self.backend
        checkpoint("reduce")
        reduced = backend.reduce_all(steps, db)
        if planned is None:
            planned = Planned(
                steps, self._plan_reduced(query, steps, reduced, rules)
            )
            if memo is not None:
                memo.put(self, query, planned)
        tree = planned.tree
        rel = self._run(tree.root, reduced[tree.root.index], reduced)
        checkpoint("finalize")
        return backend.finalize(rel, tree.finalize)

    def explain(self, query: NestedQuery, db: Optional[Database] = None) -> str:
        """The Figure 3(b) operator tree: the plan, printed."""
        shaping = self._rules_for(query)
        notes = [
            note for rule, (_, note) in _REFINEMENTS.items() if rule in shaping
        ]
        return "\n".join(
            notes + [render_plan(self.plan(query, rules=shaping))]
        )

    # -- step 2: the plan ----------------------------------------------- #

    def plan(
        self,
        query: NestedQuery,
        leaves: Optional[Dict[int, Reduce]] = None,
        rules: Optional[frozenset] = None,
    ) -> TreeExpression:
        """*query*'s tree expression annotated with the physical
        operators (see :mod:`repro.core.query_tree`).

        *leaves* supplies each block's T_i column names — the reduced
        relations' at execution.  Left out, a block's attributes are the
        two symbolic columns ``attrs(T_i)`` and its rid: all the planner
        needs to derive ``by`` / ``pad`` lists, and how the paper's
        figures abbreviate them (no data touched: EXPLAIN's plan).
        """
        if rules is None:
            rules = self._rules_for(query)
        if leaves is None:
            leaves = {
                block.index: Reduce(
                    block.index,
                    rid_name(block),
                    (f"attrs(T{block.index})", rid_name(block)),
                )
                for block in query.root.walk()
            }
        tree = TreeExpression(query)
        for node in tree.root.walk():
            node.reduce = leaves[node.index]
        root = tree.root
        owner = _attr_owner_map(leaves.values())
        self._plan_node(root, root.reduce.names, [root], owner, rules)
        tree.finalize = Finalize(
            tuple(root.block.select_refs), root.block.distinct
        )
        return tree

    def _plan_reduced(self, query, steps, reduced, rules) -> TreeExpression:
        """The plan over the T_i just reduced: their names are the
        leaves, and the root's schema gives the output's."""
        tree = self.plan(
            query,
            {
                s.block.index: Reduce(
                    s.block.index, s.rid, reduced[s.block.index].schema.names
                )
                for s in steps
            },
            rules,
        )
        select_refs = tree.finalize.select_refs
        tree.finalize = replace(
            tree.finalize,
            schema=reduced[tree.root.index].schema.project(select_refs),
        )
        return tree

    def _plan_node(
        self,
        node: TreeNode,
        names: Names,
        path: List[TreeNode],
        owner: Dict[str, int],
        rules: frozenset,
        run: Optional[List[TreeNode]] = None,
        keyed: bool = True,
    ) -> Names:
        """The recursive body of Algorithm 1 (compute(node, rel)), deciding
        instead of executing: *names* are the columns of the relation
        accumulated so far, and the columns after *node*'s subtree are
        returned.  *path* starts at the root of the evaluation the
        relation belongs to — the query's root, or the block a
        sub-evaluation started from.  *run* is the joined run a
        ``fuse-links`` scan above will evaluate.  *keyed*: no two rows of
        the relation agree on the path blocks' rids.

        Keyed holds at the root of every evaluation (T_i is unique on its
        rid), and a ⟕ with a child's T_i keeps it, on the path extended
        by the child's rid.  A σ* that pads breaks it: two tuples that
        differ only in *node*'s rid both fail, and both become one outer
        tuple with *node*'s share NULL.  A nest back up makes one tuple
        per key, so it restores keyed unless it pads itself.
        """
        strict = _use_strict(path, rules)

        def padded(refs: Iterable[str]) -> Names:
            """What a failing σ* NULLs out: *node*'s share of *refs*."""
            if strict:
                return ()
            return tuple(r for r in refs if owner.get(r) == node.index)

        for edge in node.children:
            child, link = edge.child, edge.link
            leaf = child.reduce
            selection = dict(
                predicate=set_predicate_for(link),
                link=link,
                rid_ref=leaf.rid_ref,
            )
            marks = () if link.mark is None else (link.mark,)
            if VIRTUAL_CARTESIAN in rules and _subtree_uncorrelated(child.block):
                # executed once: the subtree is evaluated on its own and
                # the result shared by every outer tuple
                edge.sub_first = True
                self._plan_node(
                    child, leaf.names, path + [child], owner, rules
                )
                edge.connect = UncorrelatedLink(
                    strict=strict, pad_refs=padded(names),
                    names=names + marks, **selection,
                )
                names = edge.connect.names
                keyed = keyed and not _pads(edge.connect)
                if marks:
                    owner[link.mark] = node.index
                continue

            sub_names = leaf.names
            if BOTTOM_UP in rules:
                # the child's subqueries first, over T_child alone: a
                # child tuple failing them is simply not in the subquery
                # result, so that evaluation is its own root (strict σ)
                edge.sub_first = True
                sub_names = self._plan_node(
                    child, sub_names, [child], owner, rules
                )
            equi = [c for c in edge.correlations if c.is_equality]
            other = [c.as_expr() for c in edge.correlations if not c.is_equality]
            outer_keys = tuple(c.outer_ref for c in equi)
            inner_keys = tuple(c.inner_ref for c in equi)
            # the linked attribute (if any) and the synthetic rid
            keep = tuple(
                r for r in (link.inner_ref, leaf.rid_ref) if r is not None
            )
            if SEMIJOIN_POSITIVE in rules:
                if link.operator not in ("exists", "not_exists"):
                    other.append(
                        Comparison(
                            link.effective_theta,
                            Col(link.outer_ref),
                            Col(link.inner_ref),
                        )
                    )
                edge.connect = SemiJoin(
                    outer_keys, inner_keys,
                    conjoin(other) if other else None, names,
                )
                continue
            if NEST_PUSHDOWN in rules and strict and equi and not other:
                edge.connect = PushdownLink(
                    outer_keys=outer_keys, inner_keys=inner_keys, keep=keep,
                    names=names, **selection,
                )
                continue

            # -- way down: connect the child block ---------------------- #
            names = names + sub_names
            edge.connect = OuterJoin(
                outer_keys, inner_keys,
                conjoin(other) if other else None, names,
                witness=FUSE_LINKS in rules and _witnessed(child, link),
            )

            # -- the child's own subqueries, in line --------------------- #
            if FUSE_LINKS in rules:
                # no way up per level: the edge at the top of the run
                # evaluates every link below it in one sort + scan
                chain = [node] if run is None else run
                chain.append(child)
                names = self._plan_node(
                    child, names, path + [child], owner, rules, chain,
                    keyed=keyed,
                )
                if run is None:
                    edge.up = FusedLink(
                        tuple(n.reduce.rid_ref for n in chain),
                        tuple(n.block.link for n in chain[1:]),
                        tuple(
                            set_predicate_for(n.block.link) for n in chain[1:]
                        ),
                        names,
                    )
                continue
            if BOTTOM_UP not in rules:
                names = self._plan_node(
                    child, names, path + [child], owner, rules, keyed=keyed
                )

            # -- way up: nest and apply the linking selection ------------ #
            path_indices = {n.index for n in path}
            by = tuple(r for r in names if owner.get(r) in path_indices)
            # Nest by key.  `by` (N1) is what the nest projects onto; the
            # rids of the path blocks alone decide the groups, because
            # equality on them is equality on all of `by`: (i) every rid
            # is itself in `by`; (ii) a block's attributes are a function
            # of its rid (the paper's primary-key assumption); (iii) the
            # outer join and every σ* NULL a block's columns
            # all-or-nothing — `pad_refs` below is the node's whole share
            # of `by`, rid and earlier marks included — so a padded tuple
            # has a NULL rid and a mark is constant per key.  (Inside an
            # uncorrelated subtree the enclosing blocks are not in the
            # relation.)
            edge.up = NestLink(
                by=by,
                key=tuple(
                    n.reduce.rid_ref
                    for n in path
                    if n.reduce.rid_ref in names
                ),
                keep=keep,
                strict=strict,
                pad_refs=padded(by),
                nest_impl=self.nest_impl,
                names=by + marks,
                keyed=keyed,
                **selection,
            )
            names = edge.up.names
            keyed = not _pads(edge.up)
            if marks:
                # the mark column now rides with the current node's
                # attributes: siblings must group by it and the node's
                # pseudo-selections must pad it
                owner[link.mark] = node.index
        if node.block.residual is not None:
            marks = {e.link.mark for e in node.children}
            names = tuple(r for r in names if r not in marks)
            node.residual = Residual(
                node.block.residual, strict, padded(names), names
            )
        return names

    # -- step 3: compute -------------------------------------------------- #

    def _run(self, node: TreeNode, rel, reduced: Dict[int, object]):
        """Fold the plan below *node* over *rel*, the relation accumulated
        so far: whatever the backend's native intermediate is (a
        :class:`Relation` for rows, a Batch for the vector engine) — the
        driver only ever hands it back to the backend.  *reduced* holds
        every block's T_i."""
        backend = self.backend
        for edge in node.children:
            checkpoint("operator")
            child = edge.child
            sub = reduced[child.index]
            if _joins_a_leaf(edge):
                # ⟕ straight into υ: one call, so the backend may nest
                # the join without building it
                rel = backend.join_nest(rel, sub, edge.connect, edge.up)
                continue
            if edge.sub_first:
                sub = self._run(child, sub, reduced)
            rel = getattr(backend, edge.connect.method)(rel, sub, edge.connect)
            if not edge.sub_first:
                rel = self._run(child, rel, reduced)
            if edge.up is not None:
                if isinstance(edge.up, NestLink):
                    checkpoint("nest")
                rel = getattr(backend, edge.up.method)(rel, edge.up)
        if node.residual is not None:
            checkpoint("operator")
            rel = backend.apply_residual(rel, node.residual)
        return rel


def _joins_a_leaf(edge: TreeEdge) -> bool:
    """Whether *edge* outer-joins a leaf block in line and nests it
    straight back: nothing runs between its ``connect`` and its ``up``
    (a leaf has no subtree, hence no residual over its children's
    marks)."""
    return (
        not edge.sub_first
        and edge.child.is_leaf
        and isinstance(edge.connect, OuterJoin)
        and isinstance(edge.up, NestLink)
    )


def _witnessed(child: TreeNode, link: LinkSpec) -> bool:
    """Whether one qualifying pair per outer tuple decides the fused
    run's verdicts at the edge into *child*: the edge is the run's
    deepest (*child* is a leaf) and its unmarked link is EXISTS or NOT
    EXISTS.  The scan's deepest level then reads only whether some
    member's rid is non-NULL — a leaf's rid never is — and every level
    above reads columns of the blocks above, equal across one outer
    tuple's pairs."""
    return (
        child.is_leaf
        and link.operator in ("exists", "not_exists")
        and link.mark is None
    )


def _pads(selection) -> bool:
    """Whether the σ / σ* / mark *selection* NULL-pads failing tuples."""
    return selection.selection == "pseudo" and bool(selection.pad_refs)


def _use_strict(path: List[TreeNode], rules: frozenset) -> bool:
    """Strict σ is sound at the root of an evaluation, and (by rule) when
    every unfinished linking predicate above the current node is
    positive.  ``path[0]`` is that root: its own link, if it has one, is
    not *above* anything in this evaluation."""
    links_above = [n.block.link for n in path[1:]]
    if not links_above:
        return True
    if STRICT_WHEN_POSITIVE in rules:
        return all(l.is_positive for l in links_above)
    return False


def _why_not_bottom_up(query: NestedQuery) -> Optional[str]:
    if not query.is_linear:
        return "bottom-up evaluation requires a linear query"
    if not query.is_linearly_correlated():
        return (
            "bottom-up evaluation requires every block to be correlated "
            "with its adjacent outer block only"
        )
    if query.has_disjunction:
        return "bottom-up evaluation does not combine subqueries under OR/NOT"
    return None


def _why_not_semijoin_chain(query: NestedQuery) -> Optional[str]:
    """All links positive *and* every correlation adjacent.

    A block correlated with a non-adjacent ancestor (the paper's Query 3
    shape) cannot be folded into a bottom-up semijoin chain: the semijoin
    discards the ancestor attributes the inner block needs.
    """
    for block in query.root.walk():
        # excludes negative links, aggregate links and marked
        # (disjunctive) links alike — none admit a plain semijoin
        if block.link is not None and not block.link.is_positive:
            return (
                "positive rewrite requires all linking operators positive "
                f"(block {block.index}: {block.link.describe()})"
            )
    if not query.is_linearly_correlated():
        return (
            "positive rewrite requires adjacent correlations: every block "
            "correlated with its adjacent outer block only"
        )
    return None


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


def _attr_owner_map(leaves: Iterable[Reduce]) -> Dict[str, int]:
    """Map every qualified attribute name to the index of its block."""
    owner: Dict[str, int] = {}
    for leaf in leaves:
        for ref in leaf.names:
            if ref in owner:
                raise PlanError(
                    f"attribute {ref!r} appears in blocks {owner[ref]} "
                    f"and {leaf.index}"
                )
            owner[ref] = leaf.index
    return owner


# --------------------------------------------------------------------- #
# The registry's row-side names: presets of the one driver.
# --------------------------------------------------------------------- #


def _register_preset(name, description, refinements=(), nest_impl="hash"):
    def make() -> NestedRelationalStrategy:
        impl = NestedRelationalStrategy(
            DEFAULT_RULES | set(refinements), nest_impl
        )
        impl.name = name
        return impl

    register(name, description=description)(make)


_register_preset(
    "nested-relational",
    "Algorithm 1: reduce, outer-join down, nest + link up (§4.1)",
)
_register_preset(
    "nested-relational-sorted",
    "Algorithm 1 with the sort-based physical nest (§5.1)",
    nest_impl="sorted",
)
_register_preset(
    "nested-relational-optimized",
    "single-pass pipelined nest + linking selections (§4.2.1-2)",
    (FUSE_LINKS,),
    # the nest a tree or disjunctive query falls through to
    nest_impl="sorted",
)
_register_preset(
    "nested-relational-bottomup",
    "bottom-up evaluation with nest push-down (§4.2.3-4)",
    (BOTTOM_UP, NEST_PUSHDOWN),
)
_register_preset(
    "nested-relational-positive-rewrite",
    "all-positive queries collapsed into semijoin chains (§4.2.5)",
    (BOTTOM_UP, SEMIJOIN_POSITIVE),
)
