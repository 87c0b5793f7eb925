"""Logical model of a nested SQL query: blocks, links, correlations.

Every strategy in this repository (nested relational, nested iteration,
classical unnesting, System-A emulation) consumes the same normalized
representation, a tree of :class:`QueryBlock` objects:

* each block has FROM tables (with aliases), a *local* predicate
  (the paper's Δ_i — everything in the WHERE clause except linking and
  correlated predicates),
* a block other than the root carries a :class:`LinkSpec` describing the
  linking predicate that connects it to its parent (the paper's L_i),
* a block carries :class:`Correlation` records for predicates that
  reference attributes of *enclosing* blocks (the paper's C_ij).

Blocks are numbered in depth-first, left-to-right order starting at 1 —
the same order the paper uses when it writes T_1 .. T_n.

The model is deliberately restricted to the paper's scope: non-aggregate
subqueries linked by EXISTS / NOT EXISTS / IN / NOT IN / θ SOME|ANY /
θ ALL, with conjunctive WHERE clauses whose correlated predicates are
simple comparisons between an inner and an outer column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from ..engine.expressions import Comparison, Col, Expr, conjoin
from ..engine.types import flip_op

#: Linking operators, paper terminology.  "Positive" operators pass when a
#: matching inner tuple exists; "negative" ones pass on the empty set.
POSITIVE_OPS = ("exists", "in", "some")
NEGATIVE_OPS = ("not_exists", "not_in", "all")
#: Aggregate linking: ``outer θ (SELECT agg(...) ...)``.  Neither positive
#: nor negative — ``COUNT(*) = 0`` passes exactly on the empty set, so the
#: way-up selection above an aggregate link must never be strict.
AGG_OP = "agg"
LINK_OPS = POSITIVE_OPS + NEGATIVE_OPS + (AGG_OP,)

#: Aggregate functions an aggregate link can carry.  ``count_star`` is
#: ``COUNT(*)`` (counts tuples); ``count`` counts non-NULL argument values.
AGG_FUNCS = ("count_star", "count", "sum", "avg", "min", "max")

#: Comparison thetas allowed in quantified linking predicates.
THETAS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class LinkSpec:
    """The linking predicate between a block and its parent.

    ``operator`` is one of :data:`LINK_OPS`.  For quantified operators
    (``in``/``not_in``/``some``/``all``) *outer_ref* is the linking
    attribute (an outer-block column), *theta* the comparison, and
    *inner_ref* the linked attribute (a column of this block).  For
    ``exists``/``not_exists`` all three are None.

    ``IN`` is normalized as ``= SOME`` and ``NOT IN`` as ``<> ALL``
    (paper Section 4.1, Example 2) but the original spelling is retained
    in ``operator`` so baselines can reproduce operator-specific plans.

    Aggregate links (``operator == "agg"``) carry the scalar-subquery
    form ``lhs θ agg(inner)``: *agg_func* names the aggregate,
    *inner_ref* its argument column (None for ``COUNT(*)``), and the
    left-hand side is either *outer_ref* (an outer-block column) or
    *outer_const* — a 1-tuple wrapping a literal, so a NULL constant is
    distinguishable from "no constant".

    ``mark`` is set when the link appears under OR / NOT rather than as
    a top-level conjunct: instead of filtering, the way-up selection
    emits a three-valued mark column of that name, and the parent
    block's ``residual`` combines the marks (Section 4.1's tree
    expressions extended with disjunctive linking predicates).
    """

    operator: str
    outer_ref: Optional[str] = None
    theta: Optional[str] = None
    inner_ref: Optional[str] = None
    agg_func: Optional[str] = None
    outer_const: Optional[Tuple[object]] = None
    mark: Optional[str] = None

    def __post_init__(self) -> None:
        if self.operator not in LINK_OPS:
            raise AnalysisError(f"unknown linking operator {self.operator!r}")
        if self.operator == AGG_OP:
            if self.agg_func not in AGG_FUNCS:
                raise AnalysisError(
                    f"unknown aggregate function {self.agg_func!r}"
                )
            if not self.theta:
                raise AnalysisError("aggregate link needs a comparison theta")
            if self.agg_func != "count_star" and not self.inner_ref:
                raise AnalysisError(
                    f"aggregate {self.agg_func!r} needs an argument column"
                )
            if (self.outer_ref is None) == (self.outer_const is None):
                raise AnalysisError(
                    "aggregate link needs exactly one of outer_ref/outer_const"
                )
        else:
            if self.agg_func is not None or self.outer_const is not None:
                raise AnalysisError(
                    f"agg_func/outer_const only apply to {AGG_OP!r} links"
                )
            quantified = self.operator not in ("exists", "not_exists")
            if quantified and not (
                self.outer_ref and self.theta and self.inner_ref
            ):
                raise AnalysisError(
                    f"linking operator {self.operator!r} needs outer_ref/theta/inner_ref"
                )
        if self.theta is not None and self.theta not in THETAS:
            raise AnalysisError(f"unknown linking theta {self.theta!r}")

    @property
    def is_positive(self) -> bool:
        """Whether a strict way-up selection above this link is sound.

        Aggregate links are never positive (``COUNT(*) = 0`` passes on
        the empty set), and a *marked* link must not license strictness
        either: deleting a row below a mark would wrongly erase outer
        rows whose mark should merely be FALSE inside the residual.
        """
        return self.operator in POSITIVE_OPS and self.mark is None

    @property
    def is_negative(self) -> bool:
        return self.operator in NEGATIVE_OPS

    @property
    def quantifier(self) -> str:
        """The SOME/ALL quantifier after IN / NOT IN normalization."""
        if self.operator in ("exists", "not_exists", AGG_OP):
            return self.operator
        if self.operator in ("in", "some"):
            return "some"
        return "all"

    @property
    def effective_theta(self) -> Optional[str]:
        """Theta after IN -> ``= SOME`` / NOT IN -> ``<> ALL`` normalization."""
        if self.operator == "in":
            return "="
        if self.operator == "not_in":
            return "<>"
        return self.theta

    @property
    def agg_text(self) -> str:
        """``count(*)`` / ``max(s.b)`` — the aggregate call as SQL text."""
        assert self.operator == AGG_OP
        if self.agg_func == "count_star":
            return "count(*)"
        return f"{self.agg_func}({self.inner_ref})"

    def describe(self) -> str:
        if self.operator in ("exists", "not_exists"):
            base = self.operator.upper().replace("_", " ")
        elif self.operator == AGG_OP:
            lhs = (
                self.outer_ref
                if self.outer_ref is not None
                else repr(self.outer_const[0])
            )
            base = f"{lhs} {self.theta} {self.agg_text}"
        else:
            base = f"{self.outer_ref} {self.effective_theta} {self.quantifier.upper()} {{{self.inner_ref}}}"
        if self.mark is not None:
            return f"{base} -> {self.mark}"
        return base


@dataclass(frozen=True)
class Correlation:
    """A correlated predicate ``outer_ref op inner_ref``.

    *outer_ref* belongs to an enclosing block, *inner_ref* to the block
    holding the record.  ``op`` is a plain comparison theta, oriented so
    the outer attribute is on the left (the paper writes ``R.D = S.G``).
    """

    outer_ref: str
    op: str
    inner_ref: str

    def __post_init__(self) -> None:
        if self.op not in THETAS:
            raise AnalysisError(f"unknown correlation operator {self.op!r}")

    @property
    def is_equality(self) -> bool:
        return self.op == "="

    def as_expr(self) -> Expr:
        return Comparison(self.op, Col(self.outer_ref), Col(self.inner_ref))

    def describe(self) -> str:
        return f"{self.outer_ref} {self.op} {self.inner_ref}"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate computed by a ``GROUP BY`` block.

    *arg* is the qualified argument column (None for ``COUNT(*)``) and
    *name* the synthetic output column the aggregate value is exposed
    under (e.g. ``"count(*)"`` — referenced by HAVING and SELECT).
    """

    func: str  # one of AGG_FUNCS
    arg: Optional[str]
    name: str

    def __post_init__(self) -> None:
        if self.func not in AGG_FUNCS:
            raise AnalysisError(f"unknown aggregate function {self.func!r}")
        if self.func != "count_star" and self.arg is None:
            raise AnalysisError(f"aggregate {self.func!r} needs an argument")

    def describe(self) -> str:
        return self.name


@dataclass
class QueryBlock:
    """One SQL query block.

    ``tables`` maps alias -> base table name (insertion ordered; SQL FROM
    list).  ``local_predicate`` is Δ_i: every WHERE conjunct that only
    references this block's tables (including join predicates among them).
    ``correlations`` are the C_ij records; ``link`` is L_{i-1} — how this
    block is linked *to its parent* (None for the root).  ``select_refs``
    is only meaningful for the root block (the subquery SELECT list is
    captured in its link's ``inner_ref``).
    """

    tables: Dict[str, str]
    local_predicate: Optional[Expr] = None
    correlations: List[Correlation] = field(default_factory=list)
    link: Optional[LinkSpec] = None
    children: List["QueryBlock"] = field(default_factory=list)
    select_refs: List[str] = field(default_factory=list)
    distinct: bool = False
    #: root only: ``(qualified ref, descending)`` pairs, applied to the
    #: final result by the planner (strategies produce unordered bags)
    order_by: List[Tuple[str, bool]] = field(default_factory=list)
    #: root only: maximum number of result rows (after ordering)
    limit: Optional[int] = None
    #: GROUP BY keys (qualified refs).  On the root the grouping runs as
    #: a post-pass over the strategy result; on a (necessarily
    #: uncorrelated, childless) subquery block it runs at reduce time.
    group_by: List[str] = field(default_factory=list)
    #: aggregates this block computes (root SELECT/HAVING, or a grouped
    #: subquery's HAVING)
    aggregates: List[AggregateSpec] = field(default_factory=list)
    #: HAVING predicate over group keys and aggregate output names
    having: Optional[Expr] = None
    #: root only, with grouping: final output columns in SELECT order
    #: (group keys and aggregate output names)
    output_refs: List[str] = field(default_factory=list)
    #: disjunctive linking residual: an expression over the mark columns
    #: of marked child links plus plain predicates, applied after all
    #: children are nested in (None when every link is conjunctive)
    residual: Optional[Expr] = None
    #: assigned by :func:`number_blocks`; 1-based DFS-L2R position.
    index: int = 0

    def walk(self) -> Iterator["QueryBlock"]:
        """This block and all descendants in DFS-L2R (paper) order."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def alias_list(self) -> List[str]:
        return list(self.tables.keys())

    def owns_ref(self, ref: str) -> bool:
        """Whether a qualified column reference belongs to this block."""
        table, _, _name = ref.rpartition(".")
        return table in self.tables

    def describe(self, depth: int = 0) -> str:
        pad = "  " * depth
        lines = [f"{pad}block {self.index}: {', '.join(f'{t} {a}' if t != a else t for a, t in self.tables.items())}"]
        if self.link is not None:
            lines[0] += f"  [link: {self.link.describe()}]"
        for c in self.correlations:
            lines.append(f"{pad}  corr: {c.describe()}")
        if self.group_by or self.aggregates:
            parts = []
            if self.group_by:
                parts.append("by " + ", ".join(self.group_by))
            if self.aggregates:
                parts.append(", ".join(a.describe() for a in self.aggregates))
            lines.append(f"{pad}  group: {'; '.join(parts)}")
        if self.having is not None:
            lines.append(f"{pad}  having: {self.having!r}")
        if self.residual is not None:
            lines.append(f"{pad}  residual: {self.residual!r}")
        for child in self.children:
            lines.append(child.describe(depth + 1))
        return "\n".join(lines)


@dataclass
class NestedQuery:
    """A whole nested query: the root block plus derived metadata."""

    root: QueryBlock

    def __post_init__(self) -> None:
        number_blocks(self.root)
        _validate(self.root)

    @property
    def blocks(self) -> List[QueryBlock]:
        return list(self.root.walk())

    @property
    def nesting_depth(self) -> int:
        """0 for a flat query, 1 for one-level nesting, and so on."""

        def depth(block: QueryBlock) -> int:
            if not block.children:
                return 0
            return 1 + max(depth(c) for c in block.children)

        return depth(self.root)

    @property
    def is_linear(self) -> bool:
        """At most one subquery nested within any block (paper footnote 2)."""
        return all(len(b.children) <= 1 for b in self.root.walk())

    @property
    def is_tree(self) -> bool:
        """Some block has two or more subqueries at the same level."""
        return not self.is_linear

    @property
    def has_negative_link(self) -> bool:
        return any(
            b.link is not None and b.link.is_negative for b in self.root.walk()
        )

    @property
    def has_positive_link(self) -> bool:
        return any(
            b.link is not None and b.link.is_positive for b in self.root.walk()
        )

    @property
    def has_mixed_links(self) -> bool:
        return self.has_negative_link and self.has_positive_link

    @property
    def has_aggregate_link(self) -> bool:
        """Some block is linked by ``lhs θ agg(...)`` (scalar subquery)."""
        return any(
            b.link is not None and b.link.operator == AGG_OP
            for b in self.root.walk()
        )

    @property
    def has_disjunction(self) -> bool:
        """Some block combines subqueries under OR/NOT via mark columns."""
        return any(b.residual is not None for b in self.root.walk())

    def is_linearly_correlated(self) -> bool:
        """Each inner block only correlated to its *adjacent* outer block.

        This is the precondition for the bottom-up evaluation strategy of
        paper Section 4.2.3.
        """
        ancestors: Dict[int, List[QueryBlock]] = {}

        def visit(block: QueryBlock, path: List[QueryBlock]) -> bool:
            for corr in block.correlations:
                owner = _owner_of(corr.outer_ref, path)
                if owner is None:
                    return False
                if path and owner is not path[-1]:
                    return False
            return all(visit(c, path + [block]) for c in block.children)

        return visit(self.root, [])

    def parent_of(self, block: QueryBlock) -> Optional[QueryBlock]:
        for b in self.root.walk():
            if block in b.children:
                return b
        return None

    def describe(self) -> str:
        flags = []
        flags.append("linear" if self.is_linear else "tree")
        if self.has_mixed_links:
            flags.append("mixed links")
        elif self.has_negative_link:
            flags.append("negative links")
        elif self.has_positive_link:
            flags.append("positive links")
        if self.is_linearly_correlated():
            flags.append("linearly correlated")
        return f"NestedQuery[{', '.join(flags)}]\n{self.root.describe()}"


def number_blocks(root: QueryBlock) -> None:
    """Assign 1-based DFS-L2R indexes (the paper's block numbering)."""
    for i, block in enumerate(root.walk(), start=1):
        block.index = i


def _owner_of(ref: str, path: Sequence[QueryBlock]) -> Optional[QueryBlock]:
    for block in reversed(list(path)):
        if block.owns_ref(ref):
            return block
    return None


def _validate(root: QueryBlock) -> None:
    seen_aliases: Dict[str, int] = {}
    for block in root.walk():
        if not block.tables:
            raise AnalysisError(f"block {block.index} has an empty FROM list")
        for alias in block.tables:
            if alias in seen_aliases:
                raise AnalysisError(
                    f"alias {alias!r} used by blocks {seen_aliases[alias]} and "
                    f"{block.index}; aliases must be unique across the query"
                )
            seen_aliases[alias] = block.index
        if block.link is None and block is not root:
            raise AnalysisError(f"non-root block {block.index} lacks a link")
        if block is root and block.link is not None:
            raise AnalysisError("root block must not carry a link")
        if block is root and not block.select_refs:
            raise AnalysisError("root block needs a SELECT list")
        if block is not root and (block.group_by or block.having is not None):
            # grouped subquery blocks are reduced to their aggregated
            # relation up front, which is only sound without per-outer
            # bindings or nested subqueries of their own
            if block.correlations or block.children:
                raise AnalysisError(
                    f"grouped subquery block {block.index} must be "
                    "uncorrelated and must not nest further subqueries"
                )

    # Every correlation must reference an ancestor block.
    def visit(block: QueryBlock, path: List[QueryBlock]) -> None:
        for corr in block.correlations:
            if not block.owns_ref(corr.inner_ref):
                raise AnalysisError(
                    f"correlation {corr.describe()} inner side does not belong "
                    f"to block {block.index}"
                )
            if _owner_of(corr.outer_ref, path) is None:
                raise AnalysisError(
                    f"correlation {corr.describe()} outer side does not "
                    f"resolve in any enclosing block of block {block.index}"
                )
        for child in block.children:
            visit(child, path + [block])

    visit(root, [])
