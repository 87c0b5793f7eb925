"""Table statistics and cardinality estimation for the cost-based planner.

The optimizer (:mod:`repro.core.optimizer`) prices each candidate
strategy in abstract *row-ops* — rows scanned, joined and nested — and
those quantities come from here:

* :func:`collect_stats` samples every table of a
  :class:`~repro.engine.catalog.Database` **once per catalog version**
  (row counts are exact; NDV / min / max / NULL fraction come from a
  deterministic stride sample of the table's columns) and caches the
  resulting :class:`DbStats` in a weak per-database map;
* :func:`set_table_stats` registers persistent per-column overrides —
  the TPC-H generator seeds its *known* distributions (key NDVs, date
  ranges) this way, and tests use it to plant a deliberate mis-estimate
  for the feedback-convergence scenario;
* :func:`selectivity` walks a predicate expression tree and returns the
  estimated fraction of rows that satisfy it (equality ``1/NDV``,
  ranges by min/max interpolation, ``IS NULL`` by the NULL fraction,
  AND/OR/NOT by independence);
* :func:`link_selectivity` estimates the fraction of outer rows passing
  each of the paper's linking operators (EXISTS / IN / SOME / ALL /
  aggregate links), including the 3VL effect of NULLs on ``NOT IN``;
* :class:`PlanStats` propagates all of the above through one
  :class:`~repro.core.blocks.NestedQuery` — reduced block sizes, per
  level outer-join cardinalities, nest and semijoin work — and is the
  single argument of every strategy's ``cost`` hook.

Estimates are heuristics, not guarantees: the planner only needs the
*ordering* of candidate costs to be right often enough, and the
per-session :class:`~repro.core.feedback.FeedbackStore` replaces the
estimated block cardinalities with observed ones after each traced
execution.
"""

from __future__ import annotations

import datetime
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..engine.catalog import Database, Table
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
from ..engine.types import is_null
from .blocks import AGG_OP, LinkSpec, NestedQuery, QueryBlock

#: rows sampled per table for NDV/min/max/NULL-fraction estimation; the
#: stride is derived from the table size, so sampling is deterministic
SAMPLE_CAP = 2048

#: fallback selectivities when no statistics resolve for a column
DEFAULT_EQ_SEL = 0.1
DEFAULT_RANGE_SEL = 1.0 / 3.0
DEFAULT_NEQ_SEL = 0.9


@dataclass(frozen=True)
class ColumnStats:
    """Summary statistics of one column.

    *ndv* is the estimated number of distinct non-NULL values,
    *null_frac* the fraction of NULL entries, *min_value* / *max_value*
    the observed extremes (None when the column is all-NULL or its
    values do not order).  *exact* marks seeded (not sampled) figures.
    """

    ndv: float = 1.0
    null_frac: float = 0.0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    exact: bool = False

    def merged(self, other: "ColumnStats") -> "ColumnStats":
        """This record updated with *other*'s non-default fields."""
        return replace(
            other,
            min_value=(
                other.min_value if other.min_value is not None else self.min_value
            ),
            max_value=(
                other.max_value if other.max_value is not None else self.max_value
            ),
        )


@dataclass
class TableStats:
    """Row count plus per-column statistics of one base table.

    ``columns`` is keyed by the *bare* column name (``o_orderkey``, not
    ``orders.o_orderkey``) — the qualifier is the table itself.
    """

    name: str
    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name)


@dataclass
class DbStats:
    """Statistics of a whole catalog, collected at one version."""

    version: int
    tables: Dict[str, TableStats] = field(default_factory=dict)

    def table(self, name: str) -> Optional[TableStats]:
        return self.tables.get(name)

    def column(self, table: str, column: str) -> Optional[ColumnStats]:
        ts = self.tables.get(table)
        return ts.column(column) if ts is not None else None


# --------------------------------------------------------------------- #
# collection
# --------------------------------------------------------------------- #

#: db -> DbStats for db.version (re-collected when the version moves)
_STATS_CACHE: "weakref.WeakKeyDictionary[Database, DbStats]" = (
    weakref.WeakKeyDictionary()
)
#: db -> [(table, row_count_override, {col: ColumnStats})]; overrides
#: are *persistent*: re-applied after every (re)collection, so an index
#: build (which bumps the catalog version) does not lose seeded figures
_OVERRIDES: "weakref.WeakKeyDictionary[Database, List[Tuple]]" = (
    weakref.WeakKeyDictionary()
)


def _comparable(value: Any) -> bool:
    return isinstance(value, (int, float, str, datetime.date)) and not isinstance(
        value, bool
    )


def _stored_table_stats(table: Table, stored: Dict[str, Any]) -> TableStats:
    """Exact statistics read off a stored table's manifest.

    Column stores (:mod:`repro.engine.colstore`) compute NDV / min / max
    / NULL fraction over the *whole* column at write time, so there is
    nothing to sample.  Figures are marked ``exact`` exactly like
    :func:`set_table_stats` seeds.
    """
    stats = TableStats(name=table.name, row_count=len(table.relation))
    for col in table.schema.columns:
        entry = stored.get(col.name)
        if entry is None:
            stats.columns[col.name] = ColumnStats()
            continue
        stats.columns[col.name] = ColumnStats(
            ndv=float(entry.get("ndv", 1.0)),
            null_frac=float(entry.get("null_frac", 0.0)),
            min_value=entry.get("min"),
            max_value=entry.get("max"),
            exact=True,
        )
    return stats


def _collect_table(table: Table, cap: int = SAMPLE_CAP) -> TableStats:
    relation = table.relation
    if relation.stored_stats is not None:
        return _stored_table_stats(table, relation.stored_stats)
    n = len(relation)
    stats = TableStats(name=table.name, row_count=n)
    if n == 0:
        for col in table.schema.columns:
            stats.columns[col.name] = ColumnStats(ndv=0.0)
        return stats
    stride = max(1, n // cap)
    samples = relation.column_samples(stride)
    for col, sample in zip(table.schema.columns, samples):
        m = len(sample)
        nulls = 0
        distinct = set()
        lo = hi = None
        for v in sample:
            if is_null(v):
                nulls += 1
                continue
            try:
                distinct.add(v)
            except TypeError:  # pragma: no cover - unhashable value
                pass
            if _comparable(v):
                if lo is None or v < lo:
                    lo = v
                if hi is None or v > hi:
                    hi = v
        seen = len(distinct)
        non_null = m - nulls
        if stride == 1 or non_null == 0:
            ndv = float(seen)
        elif seen >= non_null:
            # every sampled value unique: assume a key-like column
            ndv = float(n)
        elif seen <= non_null / 2:
            # a value set this small is almost certainly complete
            ndv = float(seen)
        else:
            ndv = min(float(n), seen * (n / max(1, non_null)))
        stats.columns[col.name] = ColumnStats(
            ndv=ndv,
            null_frac=nulls / m,
            min_value=lo,
            max_value=hi,
        )
    return stats


def collect_stats(db: Database, refresh: bool = False) -> DbStats:
    """Statistics for *db*, collected once per ``db.version``.

    Results are cached weakly per database and invalidated when the
    catalog version moves (CREATE/DROP/mutate/index build); registered
    :func:`set_table_stats` overrides are re-applied after every
    collection.
    """
    cached = _STATS_CACHE.get(db)
    if cached is not None and cached.version == db.version and not refresh:
        return cached
    stats = DbStats(version=db.version)
    for name, table in db.tables.items():
        stats.tables[name] = _collect_table(table)
    for entry in _OVERRIDES.get(db, ()):
        _apply_override(stats, *entry)
    _STATS_CACHE[db] = stats
    return stats


def _apply_override(
    stats: DbStats,
    table: str,
    row_count: Optional[int],
    columns: Dict[str, ColumnStats],
) -> None:
    ts = stats.tables.get(table)
    if ts is None:
        return
    if row_count is not None:
        ts.row_count = row_count
    for name, cs in columns.items():
        base = ts.columns.get(name, ColumnStats())
        ts.columns[name] = base.merged(replace(cs, exact=True))


def set_table_stats(
    db: Database,
    table: str,
    row_count: Optional[int] = None,
    columns: Optional[Dict[str, ColumnStats]] = None,
) -> DbStats:
    """Register persistent statistic overrides for one table.

    The TPC-H generator seeds its known distributions this way (exact
    key NDVs, date ranges), and tests plant deliberate mis-estimates for
    the feedback loop.  Overrides survive catalog version bumps: they
    are re-applied after every re-collection.  Returns the refreshed
    :class:`DbStats`.
    """
    entry = (table, row_count, dict(columns or {}))
    _OVERRIDES.setdefault(db, []).append(entry)
    stats = collect_stats(db)
    _apply_override(stats, *entry)
    return stats


def clear_stat_overrides(db: Database) -> None:
    """Drop every override registered for *db* (test hook)."""
    _OVERRIDES.pop(db, None)
    _STATS_CACHE.pop(db, None)


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

    All figures are abstract *row-ops* and row counts; they are what a
    strategy's ``cost(plan_stats)`` hook consumes.  ``overrides`` maps a
    block index to an observed reduced-block cardinality (the feedback
    loop) and wins over the estimate.

    Attributes
    ----------
    base_rows : dict   block index -> product of base-table row counts
    block_rows : dict  block index -> reduced T_i cardinality estimate
    level_rows : dict  block index -> rows after outer-joining the block
                       under its ancestor path (the paper's way down)
    link_sel : dict    block index -> linking-operator selectivity
    out_rows : float   estimated root result cardinality
    scan_work : float  rows scanned to reduce every block
    join_work : float  rows materialized by the way-down outer joins
    nest_work : float  rows regrouped by the way-up nests
    semijoin_work : float  work of the positive-rewrite semijoin chain
    bottomup_work : float  work of the bottom-up nest push-down plan
    iteration_work : float per-tuple re-evaluation work (nested iteration)
    probe_work : float     index-probe work (System A emulation)
    """

    def __init__(
        self,
        query: NestedQuery,
        stats: DbStats,
        overrides: Optional[Dict[int, int]] = None,
        memory_limit_mb: Optional[float] = None,
    ):
        self.query = query
        self.stats = stats
        #: execution memory budget in bytes, None = unbounded; the
        #: vector cost hooks charge extra I/O passes for builds that
        #: will not fit (Grace spill partitioning writes + re-reads)
        self.memory_limit_bytes: Optional[float] = (
            None if memory_limit_mb is None else memory_limit_mb * 1024 * 1024
        )
        overrides = overrides or {}

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
            est = base * selectivity(block.local_predicate, resolve)
            if block.index in overrides:
                est = float(overrides[block.index])
            self.block_rows[block.index] = max(0.0, est)

        root = query.root
        self.level_rows[root.index] = self.block_rows[root.index]
        self._walk_down(root)

        out = self.block_rows[root.index]
        for block in query.root.walk():
            if block.link is not None:
                out *= self.link_sel.get(block.index, 1.0)
        self.out_rows = out

        self.scan_work = sum(self.base_rows.values())
        non_root = [b for b in query.root.walk() if b.link is not None]
        self.join_work = sum(
            self.level_rows[b.index] + self.block_rows[b.index] for b in non_root
        )
        self.nest_work = sum(self.level_rows[b.index] for b in non_root)
        self.semijoin_work = sum(
            self.block_rows[self._parent_index(b)] + self.block_rows[b.index]
            for b in non_root
        )
        self.bottomup_work = sum(
            2.0 * self.block_rows[b.index]
            + self.block_rows[self._parent_index(b)]
            for b in non_root
        )
        inner_total = sum(self.block_rows[b.index] for b in non_root)
        self.iteration_work = self.block_rows[root.index] * (1.0 + inner_total)
        self.probe_work = self.block_rows[root.index] * (
            1.0 + 4.0 * len(non_root)
        )

    # ------------------------------------------------------------------ #

    def _parent_index(self, block: QueryBlock) -> int:
        parent = self.query.parent_of(block)
        return parent.index if parent is not None else self.query.root.index

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

    @property
    def pipeline_work(self) -> float:
        """The nested-relational pipeline's total row-ops."""
        return self.scan_work + self.join_work + self.nest_work

    def spill_io_work(self) -> float:
        """Extra row-ops for predicted spill passes under the budget.

        When the estimated build footprint of the join/nest pipeline
        exceeds the memory budget, the spillable kernels partition the
        inputs to disk and re-read them — roughly one extra write+read
        pass over the partitioned rows per factor by which the build
        overshoots the budget (recursive partitioning caps the depth, so
        the estimate saturates).  Returns 0 when unbudgeted or fitting.
        """
        if self.memory_limit_bytes is None or self.memory_limit_bytes <= 0:
            return 0.0
        from ..engine.governor import EST_BYTES_PER_VALUE

        est_bytes = (self.join_work + self.nest_work) * EST_BYTES_PER_VALUE
        if est_bytes <= self.memory_limit_bytes:
            return 0.0
        extra_passes = min(4.0, est_bytes / self.memory_limit_bytes - 1.0)
        return extra_passes * (self.join_work + self.nest_work)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        lines = [f"out_rows~{self.out_rows:.1f}"]
        for i in sorted(self.block_rows):
            lines.append(
                f"T{i}: base={self.base_rows[i]:.0f} "
                f"reduced~{self.block_rows[i]:.1f} "
                f"level~{self.level_rows.get(i, 0.0):.1f} "
                f"link_sel~{self.link_sel.get(i, 1.0):.3f}"
            )
        return "\n".join(lines)
