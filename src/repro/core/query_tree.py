"""Tree expressions (Algorithm 1 step 2, paper Figure 3(a)) and the
physical plan hung on them.

A :class:`TreeExpression` is the paper's intermediate structure between a
nested query and its evaluation: one node per query block (labelled T_i),
a directed edge from each block to its children labelled with the linking
predicate L_i and any correlated predicates C_ij.

Correlated predicates referencing *non-adjacent* blocks are attached to
the edge entering the correlated block when every edge above already
carries correlation labels — producing a maximal spanning query tree of
the underlying query graph, exactly as the paper prescribes.  Since SQL
correlation always points at enclosing blocks, the attributes needed to
evaluate such a predicate are guaranteed to be present in the accumulated
relation by the time the edge is crossed (this is why Algorithm 1 can
evaluate all C_ij of a block at its entering edge).

``TreeExpression(query)`` alone is that labelled tree (``render()`` is
Figure 3(a)).  The planner of
:class:`~repro.core.compute.NestedRelationalStrategy` then *annotates* it
with one small frozen node per physical operator — the plan step 3
executes and EXPLAIN prints:

* every :class:`TreeNode` gets its :class:`Reduce` leaf (T_i) and, for a
  block with a disjunctive residual, a :class:`Residual`;
* every :class:`TreeEdge` gets the operator that *connects* the child
  (:class:`OuterJoin` on the way down, or one of
  :class:`UncorrelatedLink`, :class:`PushdownLink`, :class:`SemiJoin`),
  whether the child's subtree is evaluated before the connection
  (``sub_first``) or in line after it, and the way *up*
  (:class:`NestLink`, or :class:`FusedLink` on the top edge of a fused
  run);
* the tree itself gets the :class:`Finalize`.

A plan node carries exactly the arguments its backend method takes
(``backend.<node.method>(rel[, child], node)``, see
:mod:`repro.core.backend`) plus ``names``, the statically derived column
names of its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple, Union

from ..engine.expressions import Expr
from ..engine.schema import Schema
from .blocks import Correlation, LinkSpec, NestedQuery, QueryBlock
from .linking import SetPredicate

Names = Tuple[str, ...]


# --------------------------------------------------------------------- #
# Plan nodes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Reduce:
    """Leaf: T_i = σ_Δi(R_i) with its synthetic rid column."""

    index: int
    rid_ref: str
    names: Names


@dataclass(frozen=True)
class OuterJoin:
    """Way down: ⟕ on the child's correlated predicates.  Without any
    (a non-correlated child when ``virtual-cartesian`` is off) it is the
    outer ×, a ⟕ on TRUE.  *witness*: each left row keeps only its
    first qualifying pair (or its padding) — the deepest edge of a
    ``fuse-links`` run into a leaf under an unmarked EXISTS / NOT
    EXISTS, whose link reads only whether some pair exists (derived by
    the planner; False claims nothing)."""

    method: ClassVar[str] = "left_outer_join"
    outer_keys: Names
    inner_keys: Names
    residual: Optional[Expr]
    names: Names
    witness: bool = False

    @property
    def cross(self) -> bool:
        return not self.outer_keys and self.residual is None


@dataclass(frozen=True)
class _Link:
    """What every linking operator reads: the set predicate, the link it
    came from and the child's rid (NULL rid = "not a member")."""

    predicate: SetPredicate
    link: LinkSpec
    rid_ref: str


@dataclass(frozen=True)
class _Selection(_Link):
    """A link that filters (strict σ), pads (σ*) or marks."""

    strict: bool
    pad_refs: Names

    @property
    def mark(self) -> Optional[str]:
        """The mark column the verdict goes to, or None to filter / pad."""
        return self.link.mark

    @property
    def selection(self) -> str:
        """``"mark"``, ``"linking"`` (strict σ) or ``"pseudo"`` (σ*)."""
        if self.mark is not None:
            return "mark"
        return "linking" if self.strict else "pseudo"


@dataclass(frozen=True)
class NestLink(_Selection):
    """Way up: υ_{by,keep} then the linking selection.  *by* is N1, *key*
    the path blocks' rids, which decide the same groups.  *keyed*: no two
    rows of the relation the edge starts from agree on *key*, so at a
    leaf edge each of its rows is one group (derived by the planner;
    False claims nothing)."""

    method: ClassVar[str] = "nest_link"
    by: Names
    key: Names
    keep: Names
    nest_impl: str
    names: Names
    keyed: bool = False


@dataclass(frozen=True)
class UncorrelatedLink(_Selection):
    """``virtual-cartesian``: the subquery result, evaluated once, is the
    member set of every outer tuple."""

    method: ClassVar[str] = "uncorrelated_link"
    names: Names


@dataclass(frozen=True)
class FusedLink:
    """``fuse-links``: one sort by the run's rid chain, every link of the
    run in one scan.  ``links[l]`` / ``predicates[l]`` belong to the
    block whose rid is ``rid_refs[l + 1]``."""

    method: ClassVar[str] = "fused_link"
    rid_refs: Names
    links: Tuple[LinkSpec, ...]
    predicates: Tuple[SetPredicate, ...]
    names: Names


@dataclass(frozen=True)
class PushdownLink(_Link):
    """``nest-pushdown``: υ below the join, one group probed per outer
    tuple, strict σ."""

    method: ClassVar[str] = "pushdown_link"
    strict: ClassVar[bool] = True  # the rule's precondition
    pad_refs: ClassVar[Names] = ()
    outer_keys: Names
    inner_keys: Names
    keep: Names
    names: Names


@dataclass(frozen=True)
class SemiJoin:
    """``semijoin-positive``: the link and its correlations as one ⋉."""

    method: ClassVar[str] = "semi_join"
    outer_keys: Names
    inner_keys: Names
    residual: Optional[Expr]
    names: Names


@dataclass(frozen=True)
class Residual:
    """A block's disjunctive combination of its marks: σ or σ*, then the
    consumed mark columns are projected away."""

    method: ClassVar[str] = "apply_residual"
    mark: ClassVar[Optional[str]] = None
    expr: Expr
    strict: bool
    pad_refs: Names
    names: Names


@dataclass(frozen=True)
class Finalize:
    """π onto the SELECT list (DISTINCT when asked).  *schema* is the
    output's, taken from the root's T_i when the plan is made over
    reduced relations (None in EXPLAIN's symbolic plan)."""

    method: ClassVar[str] = "finalize"
    select_refs: Names
    distinct: bool
    schema: Optional[Schema] = field(default=None, compare=False, repr=False)

    @property
    def names(self) -> Names:
        return self.select_refs


# --------------------------------------------------------------------- #
# The tree
# --------------------------------------------------------------------- #


@dataclass
class TreeNode:
    """A node of the tree expression, labelled T_i."""

    block: QueryBlock
    children: List["TreeEdge"] = field(default_factory=list)
    #: plan: the T_i leaf and the block's disjunctive residual, if any
    reduce: Optional[Reduce] = None
    residual: Optional[Residual] = None

    @property
    def index(self) -> int:
        return self.block.index

    @property
    def label(self) -> str:
        tables = ", ".join(
            name if alias == name else f"{name} {alias}"
            for alias, name in self.block.tables.items()
        )
        return f"T{self.block.index}: {tables}"

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self):
        """This node and every node below it, depth first."""
        yield self
        for edge in self.children:
            yield from edge.child.walk()


@dataclass
class TreeEdge:
    """An edge of the tree expression: linking + correlation labels."""

    child: TreeNode
    link: LinkSpec
    correlations: List[Correlation]
    #: plan: the child's subtree runs over T_child alone, before *connect*
    #: (otherwise in line, over the joined relation, after it)
    sub_first: bool = False
    connect: Union[
        OuterJoin, UncorrelatedLink, PushdownLink, SemiJoin, None
    ] = None
    up: Union[NestLink, FusedLink, None] = None

    @property
    def label(self) -> str:
        parts = [f"L: {self.link.describe()}"]
        for corr in self.correlations:
            parts.append(f"C: {corr.describe()}")
        return "; ".join(parts)


class TreeExpression:
    """The tree expression of a nested query."""

    def __init__(self, query: NestedQuery):
        self.query = query
        self.root = self._build(query.root)
        #: plan: the output projection
        self.finalize: Optional[Finalize] = None

    def _build(self, block: QueryBlock) -> TreeNode:
        node = TreeNode(block)
        for child in block.children:
            assert child.link is not None
            node.children.append(
                TreeEdge(
                    child=self._build(child),
                    link=child.link,
                    correlations=list(child.correlations),
                )
            )
        return node

    def render(self) -> str:
        """ASCII rendering matching the paper's Figure 3(a) layout."""
        lines: List[str] = []

        def visit(node: TreeNode, depth: int) -> None:
            pad = "    " * depth
            lines.append(f"{pad}{node.label}")
            for edge in node.children:
                lines.append(f"{pad}  |- {edge.label}")
                visit(edge.child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def leaves(self) -> List[TreeNode]:
        return [node for node in self.root.walk() if node.is_leaf]
