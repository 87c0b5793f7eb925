"""Table statistics and cardinality estimation for EXPLAIN.

``repro explain`` under ``auto`` reports the estimated result
cardinality (``est_rows``) next to the plan, and EXPLAIN ANALYZE sets
the actual one beside it; the figures come from here:

* :func:`collect_stats` gives every table of a
  :class:`~repro.engine.catalog.Database` its exact row count and, per
  column, its exact NDV / NULL fraction / min / max — one function over
  the table's encoded columns
  (:meth:`~repro.engine.colstore.StoredRelation.column_stats`), computed
  when the estimator first reads a column and kept on the table; a
  column store's manifest carries them precomputed;
* :func:`selectivity` walks a predicate expression tree and returns the
  estimated fraction of rows that satisfy it (equality ``1/NDV``,
  ranges by min/max interpolation, ``IS NULL`` by the NULL fraction,
  AND/OR/NOT by independence);
* :func:`link_selectivity` estimates the fraction of outer rows passing
  each of the paper's linking operators (EXISTS / IN / SOME / ALL /
  aggregate links), including the 3VL effect of NULLs on ``NOT IN``;
* :class:`PlanStats` propagates all of the above through one
  :class:`~repro.core.blocks.NestedQuery` — reduced block sizes, per
  level outer-join cardinalities, link selectivities, result size.

Estimates are heuristics, not guarantees, and nothing corrects them:
an estimate is a pure function of the query and the database as it is.
Nothing on the execution path reads any of this: ``auto`` is a rule
(:func:`repro.core.optimizer.choose`), not a price.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from ..engine.catalog import Database
from ..engine.expressions import (
    And,
    Between,
    Col,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from ..engine.schema import parse_ref
from .blocks import AGG_OP, LinkSpec, NestedQuery, QueryBlock

if TYPE_CHECKING:
    from ..engine.colstore import StoredRelation

#: fallback selectivities when no statistics resolve for a column
DEFAULT_EQ_SEL = 0.1
DEFAULT_RANGE_SEL = 1.0 / 3.0
DEFAULT_NEQ_SEL = 0.9


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one column.

    *ndv* is the number of distinct non-NULL values, *null_frac* the
    fraction of NULL entries, *min_value* / *max_value* the extremes
    (None when the column is all-NULL or its values do not order).
    """

    ndv: float = 1.0
    null_frac: float = 0.0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None


@dataclass
class TableStats:
    """Row count plus per-column statistics of one base table.

    :meth:`column` takes the *bare* column name (``o_orderkey``, not
    ``orders.o_orderkey``) — the qualifier is the table itself — and
    reads its figures off *relation*, which keeps them.
    """

    name: str
    row_count: int
    relation: "StoredRelation" = field(repr=False, compare=False)

    def column(self, name: str) -> Optional[ColumnStats]:
        if not self.relation.schema.has(name):
            return None
        figures = self.relation.column_stats(name)
        return ColumnStats(
            ndv=figures["ndv"],
            null_frac=figures["null_frac"],
            min_value=figures["min"],
            max_value=figures["max"],
        )


@dataclass
class DbStats:
    """Statistics of a whole catalog."""

    tables: Dict[str, TableStats] = field(default_factory=dict)

    def table(self, name: str) -> Optional[TableStats]:
        return self.tables.get(name)

    def column(self, table: str, column: str) -> Optional[ColumnStats]:
        ts = self.tables.get(table)
        return ts.column(column) if ts is not None else None


# --------------------------------------------------------------------- #
# collection
# --------------------------------------------------------------------- #


def collect_stats(db: Database) -> DbStats:
    """Statistics for *db* as it is now.

    O(tables): a column's figures are read off its table when the
    estimator first asks for them, and the table keeps them, so an edited
    table (a new relation) starts afresh.
    """
    stats = DbStats()
    for name, table in db.tables.items():
        stats.tables[name] = TableStats(
            name=name, row_count=len(table.relation), relation=table.relation
        )
    return stats


# --------------------------------------------------------------------- #
# predicate selectivity
# --------------------------------------------------------------------- #

#: a resolver maps a column reference (qualified or bare) to its stats
Resolver = Callable[[str], Optional[ColumnStats]]


def block_resolver(block: QueryBlock, stats: DbStats) -> Resolver:
    """A :data:`Resolver` over one block's FROM tables.

    References are resolved alias-first (``o.o_totalprice`` with
    ``FROM orders o``), falling back to a bare-name search across the
    block's tables.
    """

    def resolve(ref: str) -> Optional[ColumnStats]:
        alias, name = parse_ref(ref)
        if alias is not None:
            table = block.tables.get(alias)
            if table is None:
                return None
            return stats.column(table, name)
        for table in block.tables.values():
            cs = stats.column(table, name)
            if cs is not None:
                return cs
        return None

    return resolve


def _as_ordinal(value: Any) -> Optional[float]:
    """Map a value onto a number for range interpolation, if possible."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    if isinstance(value, str):
        try:  # ISO dates are the common string-ordered domain
            return float(datetime.date.fromisoformat(value).toordinal())
        except ValueError:
            return None
    return None


def _range_fraction(
    op: str, value: Any, stats: Optional[ColumnStats]
) -> float:
    """Fraction of a column's domain satisfying ``col op value``."""
    if stats is None or stats.min_value is None or stats.max_value is None:
        return DEFAULT_RANGE_SEL
    lo = _as_ordinal(stats.min_value)
    hi = _as_ordinal(stats.max_value)
    v = _as_ordinal(value)
    if lo is None or hi is None or v is None or hi <= lo:
        return DEFAULT_RANGE_SEL
    below = min(1.0, max(0.0, (v - lo) / (hi - lo)))
    if op in ("<", "<="):
        frac = below
    else:  # ">", ">="
        frac = 1.0 - below
    return min(1.0, max(0.001, frac))


def _eq_sel(stats: Optional[ColumnStats]) -> float:
    if stats is None or stats.ndv <= 0:
        return DEFAULT_EQ_SEL
    return min(1.0, (1.0 - stats.null_frac) / max(stats.ndv, 1.0))


def _comparison_sel(expr: Comparison, resolve: Resolver) -> float:
    left, right = expr.left, expr.right
    # normalize literal-on-the-left
    op = expr.op
    if isinstance(left, Literal) and isinstance(right, Col):
        from ..engine.types import flip_op

        left, right, op = right, left, flip_op(op)
    if isinstance(left, Col) and isinstance(right, Literal):
        cs = resolve(left.ref)
        notnull = 1.0 - (cs.null_frac if cs is not None else 0.0)
        if op == "=":
            return _eq_sel(cs)
        if op == "<>":
            return max(0.0, notnull - _eq_sel(cs))
        return notnull * _range_fraction(op, right.value, cs)
    if isinstance(left, Col) and isinstance(right, Col):
        lcs, rcs = resolve(left.ref), resolve(right.ref)
        if op == "=":
            ndv = max(
                lcs.ndv if lcs is not None else 0.0,
                rcs.ndv if rcs is not None else 0.0,
                1.0,
            )
            return 1.0 / ndv
        if op == "<>":
            return DEFAULT_NEQ_SEL
        return DEFAULT_RANGE_SEL
    return DEFAULT_RANGE_SEL


def selectivity(expr: Optional[Expr], resolve: Resolver) -> float:
    """Estimated fraction of rows satisfying *expr* (1.0 for None).

    AND multiplies, OR applies inclusion-exclusion, NOT complements —
    the usual independence assumptions.  Unknown node shapes fall back
    to :data:`DEFAULT_RANGE_SEL`.
    """
    if expr is None:
        return 1.0
    if isinstance(expr, Literal):
        return 1.0 if expr.value is True else DEFAULT_RANGE_SEL
    if isinstance(expr, And):
        return selectivity(expr.left, resolve) * selectivity(expr.right, resolve)
    if isinstance(expr, Or):
        a = selectivity(expr.left, resolve)
        b = selectivity(expr.right, resolve)
        return min(1.0, a + b - a * b)
    if isinstance(expr, Not):
        return max(0.0, 1.0 - selectivity(expr.operand, resolve))
    if isinstance(expr, IsNull):
        frac = DEFAULT_RANGE_SEL
        if isinstance(expr.operand, Col):
            cs = resolve(expr.operand.ref)
            if cs is not None:
                frac = cs.null_frac
        return max(0.0, 1.0 - frac) if expr.negated else frac
    if isinstance(expr, Between):
        if isinstance(expr.operand, Col):
            cs = resolve(expr.operand.ref)
            low = (
                _range_fraction(">=", expr.low.value, cs)
                if isinstance(expr.low, Literal)
                else DEFAULT_RANGE_SEL
            )
            high = (
                _range_fraction("<=", expr.high.value, cs)
                if isinstance(expr.high, Literal)
                else DEFAULT_RANGE_SEL
            )
            return min(1.0, max(0.001, low + high - 1.0))
        return DEFAULT_RANGE_SEL
    if isinstance(expr, InList):
        if isinstance(expr.operand, Col):
            cs = resolve(expr.operand.ref)
            s = min(1.0, len(expr.items) * _eq_sel(cs))
        else:
            s = min(1.0, len(expr.items) * DEFAULT_EQ_SEL)
        if expr.negated:
            notnull = 1.0
            if isinstance(expr.operand, Col):
                cs = resolve(expr.operand.ref)
                if cs is not None:
                    notnull = 1.0 - cs.null_frac
            return max(0.0, notnull - s)
        return s
    if isinstance(expr, Comparison):
        return _comparison_sel(expr, resolve)
    return DEFAULT_RANGE_SEL


# --------------------------------------------------------------------- #
# linking-operator selectivity
# --------------------------------------------------------------------- #


def _match_probability(
    theta: Optional[str],
    outer: Optional[ColumnStats],
    inner: Optional[ColumnStats],
) -> float:
    """P(one outer value θ one inner value) under containment."""
    if theta == "=":
        i_ndv = inner.ndv if inner is not None else 0.0
        if i_ndv <= 0:
            return DEFAULT_EQ_SEL
        notnull = 1.0 - (outer.null_frac if outer is not None else 0.0)
        return notnull / max(i_ndv, 1.0)
    if theta == "<>":
        i_ndv = inner.ndv if inner is not None else 0.0
        return 1.0 - 1.0 / max(i_ndv, 2.0)
    return DEFAULT_RANGE_SEL


def link_selectivity(
    link: LinkSpec,
    group_size: float,
    outer: Optional[ColumnStats] = None,
    inner: Optional[ColumnStats] = None,
) -> float:
    """Estimated fraction of outer rows passing this linking operator.

    *group_size* is the expected number of inner rows nested under one
    outer row (after correlations).  The rules, documented for the
    estimator unit tests:

    * ``EXISTS`` passes when the group is non-empty: ``g / (1 + g)``
      (smooth approximation of ``P(group non-empty)``);
      ``NOT EXISTS`` is its complement.
    * ``IN`` / ``θ SOME``: per-element match probability *p* (equality:
      ``(1 - null_frac_outer) / NDV_inner``; ranges: 1/3), any-of-g:
      ``1 - (1 - p)^g``, scaled by ``P(group non-empty)``.
    * ``θ ALL``: the empty group passes, otherwise every element must
      match: ``P(empty) + P(non-empty) · p^g``.
    * ``NOT IN`` is ``<> ALL`` and additionally killed by inner NULLs —
      in 3VL one NULL element makes the whole predicate UNKNOWN unless
      a match exists — so the non-empty term is further scaled by
      ``(1 - null_frac_inner)^g``.
    * aggregate links compare one scalar per group: equality θ gets
      :data:`DEFAULT_EQ_SEL`, other thetas :data:`DEFAULT_RANGE_SEL`.
    """
    g = max(0.0, group_size)
    p_nonempty = g / (1.0 + g)
    if link.operator == "exists":
        return p_nonempty
    if link.operator == "not_exists":
        return 1.0 - p_nonempty
    if link.operator == AGG_OP:
        return DEFAULT_EQ_SEL if link.theta == "=" else DEFAULT_RANGE_SEL
    p = _match_probability(link.effective_theta, outer, inner)
    gp = min(g, 1000.0)
    if link.quantifier == "some":
        any_match = 1.0 - (1.0 - min(p, 1.0)) ** max(gp, 1.0)
        return p_nonempty * any_match
    # ALL-quantified (includes NOT IN as <> ALL)
    all_match = min(p, 1.0) ** max(gp, 1.0)
    if link.operator == "not_in" and inner is not None and inner.null_frac > 0:
        all_match *= (1.0 - inner.null_frac) ** max(gp, 1.0)
    return (1.0 - p_nonempty) + p_nonempty * all_match


# --------------------------------------------------------------------- #
# whole-query propagation
# --------------------------------------------------------------------- #


class PlanStats:
    """Cardinality estimates propagated through one nested query.

    Attributes
    ----------
    base_rows : dict   block index -> product of base-table row counts
    block_rows : dict  block index -> reduced T_i cardinality estimate
    level_rows : dict  block index -> rows after outer-joining the block
                       under its ancestor path (the paper's way down)
    link_sel : dict    block index -> linking-operator selectivity
    out_rows : float   estimated root result cardinality
    """

    def __init__(self, query: NestedQuery, stats: DbStats):
        self.base_rows: Dict[int, float] = {}
        self.block_rows: Dict[int, float] = {}
        self.level_rows: Dict[int, float] = {}
        self.link_sel: Dict[int, float] = {}
        self._resolvers: Dict[int, Resolver] = {}

        for block in query.root.walk():
            resolve = block_resolver(block, stats)
            self._resolvers[block.index] = resolve
            base = 1.0
            for table in block.tables.values():
                ts = stats.table(table)
                base *= float(ts.row_count) if ts is not None else 100.0
            self.base_rows[block.index] = base
            self.block_rows[block.index] = max(
                0.0, base * selectivity(block.local_predicate, resolve)
            )

        root = query.root
        self.level_rows[root.index] = self.block_rows[root.index]
        self._walk_down(root)

        out = self.block_rows[root.index]
        for block in query.root.walk():
            if block.link is not None:
                out *= self.link_sel.get(block.index, 1.0)
        self.out_rows = out

    # ------------------------------------------------------------------ #

    def _corr_selectivity(self, block: QueryBlock) -> float:
        sel = 1.0
        resolve = self._resolvers[block.index]
        for corr in block.correlations:
            inner = resolve(corr.inner_ref)
            outer = self._resolve_anywhere(corr.outer_ref)
            if corr.is_equality:
                ndv = max(
                    inner.ndv if inner is not None else 0.0,
                    outer.ndv if outer is not None else 0.0,
                    1.0,
                )
                sel *= 1.0 / ndv
            else:
                sel *= DEFAULT_RANGE_SEL
        return sel

    def _resolve_anywhere(self, ref: str) -> Optional[ColumnStats]:
        for resolve in self._resolvers.values():
            cs = resolve(ref)
            if cs is not None:
                return cs
        return None

    def _walk_down(self, block: QueryBlock) -> None:
        for child in block.children:
            per_outer = self.block_rows[child.index] * self._corr_selectivity(
                child
            )
            # outer join: unmatched outer rows survive NULL-padded
            self.level_rows[child.index] = self.level_rows[block.index] * max(
                1.0, per_outer
            )
            link = child.link
            if link is not None:
                resolve = self._resolvers[child.index]
                inner = (
                    resolve(link.inner_ref)
                    if link.inner_ref is not None
                    else None
                )
                outer = (
                    self._resolve_anywhere(link.outer_ref)
                    if link.outer_ref is not None
                    else None
                )
                self.link_sel[child.index] = link_selectivity(
                    link, per_outer, outer=outer, inner=inner
                )
            self._walk_down(child)
