"""Semantic analysis: SQL AST -> normalized :class:`NestedQuery`.

The analyzer resolves table and column references against the database
catalog and SQL's block-scoping rules (a name resolves in the innermost
enclosing block that can supply it), assigns globally unique aliases
(re-aliasing repeated table uses, since the block model requires global
uniqueness), and classifies every WHERE conjunct of every block into the
paper's three categories:

* **linking predicate** — a conjunct containing a subquery (EXISTS /
  IN / quantified comparison); becomes the child block's
  :class:`~repro.core.blocks.LinkSpec`;
* **correlated predicate** — a comparison between a column of the
  current block and a column of an enclosing block; becomes a
  :class:`~repro.core.blocks.Correlation`;
* **local predicate** — everything that references only the current
  block; AND-ed into Δ_i.

Beyond the paper's core subset the analyzer also lowers:

* **scalar-subquery comparisons** ``lhs θ (SELECT agg(...) ...)`` into
  aggregate links (``LinkSpec(operator="agg")``), flipping θ when the
  subquery appears on the left;
* **disjunctive linking predicates** — a WHERE conjunct that combines
  subqueries under OR / NOT is decomposed into *marked* child links
  plus a residual expression over the mark columns;
* **GROUP BY / HAVING / aggregate select items** — on the root block as
  a post-aggregation spec (the planner applies it over the strategy's
  bag result), and on uncorrelated childless subquery blocks, which are
  aggregated at reduce time.

Constructs still outside the scope (correlated predicates that are not
simple column/column comparisons, aggregates in WHERE, correlated or
grouped scalar subqueries with multiple rows, ...) raise
:class:`~repro.errors.AnalysisError` with a message naming the construct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import AnalysisError
from ..engine import expressions as ex
from ..engine.types import flip_op
from ..engine.catalog import Database
from ..core.blocks import (
    AGG_OP,
    AggregateSpec,
    Correlation,
    LinkSpec,
    NestedQuery,
    QueryBlock,
)
from . import ast as A
from .parser import parse


@dataclass
class _Scope:
    """Name-resolution scope for one block: alias -> table name."""

    aliases: Dict[str, str]
    db: Database
    parent: Optional["_Scope"] = None

    def resolve(self, ref: A.ColumnRef) -> Tuple[str, int]:
        """Resolve to (qualified name, scope depth); 0 = current block.

        Depth counts how many blocks outward resolution had to travel —
        depth > 0 means the reference is correlated.
        """
        scope: Optional[_Scope] = self
        depth = 0
        while scope is not None:
            qualified = scope._resolve_local(ref)
            if qualified is not None:
                return qualified, depth
            scope = scope.parent
            depth += 1
        raise AnalysisError(f"unresolved column reference {ref.text!r}")

    def _resolve_local(self, ref: A.ColumnRef) -> Optional[str]:
        if ref.table is not None:
            # by alias first, then by base-table name (SQL allows both)
            if ref.table in self.aliases:
                table = self.db.table(self.aliases[ref.table])
                if any(c.name == ref.column for c in table.schema.columns):
                    return f"{ref.table}.{ref.column}"
                raise AnalysisError(
                    f"table {ref.table!r} has no column {ref.column!r}"
                )
            for alias, table_name in self.aliases.items():
                if table_name == ref.table:
                    table = self.db.table(table_name)
                    if any(c.name == ref.column for c in table.schema.columns):
                        return f"{alias}.{ref.column}"
            return None
        hits = []
        for alias, table_name in self.aliases.items():
            table = self.db.table(table_name)
            if any(c.name == ref.column for c in table.schema.columns):
                hits.append(alias)
        if len(hits) > 1:
            raise AnalysisError(f"ambiguous column reference {ref.column!r}")
        if hits:
            return f"{hits[0]}.{ref.column}"
        return None


class Analyzer:
    """Lowers a parsed SELECT into a :class:`NestedQuery`."""

    def __init__(self, db: Database):
        self.db = db
        self._used_aliases: set = set()
        self._mark_count = 0

    def _next_mark(self) -> str:
        self._mark_count += 1
        return f"_mark{self._mark_count}"

    def analyze(self, stmt: A.SelectStmt) -> NestedQuery:
        root = self._analyze_block(stmt, parent_scope=None, link=None)
        return NestedQuery(root)

    # ------------------------------------------------------------------ #

    def _analyze_block(
        self,
        stmt: A.SelectStmt,
        parent_scope: Optional[_Scope],
        link: Optional[LinkSpec],
    ) -> QueryBlock:
        aliases: Dict[str, str] = {}
        for tref in stmt.tables:
            if not self.db.has_table(tref.name):
                raise AnalysisError(f"unknown table {tref.name!r}")
            alias = self._unique_alias(tref.effective_alias)
            aliases[alias] = tref.name
        scope = _Scope(aliases=aliases, db=self.db, parent=parent_scope)

        group_by: List[str] = []
        for ref in stmt.group_by:
            qualified, depth = scope.resolve(ref)
            if depth != 0:
                raise AnalysisError(
                    f"GROUP BY item {ref.text!r} resolves in an enclosing "
                    "block"
                )
            if qualified not in group_by:
                group_by.append(qualified)
        aggregates: List[AggregateSpec] = []
        grouped = bool(
            group_by
            or stmt.having is not None
            or any(isinstance(i.expr, A.AggregateCall) for i in stmt.items)
        )

        if grouped:
            select_refs, output_refs = self._grouped_select_list(
                stmt, scope, group_by, aggregates,
                is_root=parent_scope is None,
            )
        else:
            select_refs = self._select_list(stmt, scope)
            output_refs = []

        local: List[ex.Expr] = []
        correlations: List[Correlation] = []
        children: List[QueryBlock] = []
        residual_parts: List[ex.Expr] = []
        if stmt.where is not None:
            for conjunct in _conjuncts(stmt.where):
                self._classify(
                    conjunct, scope, local, correlations, children,
                    residual_parts,
                )

        having: Optional[ex.Expr] = None
        if stmt.having is not None:
            having = self._lower_having(
                stmt.having, scope, group_by, aggregates
            )
        if grouped:
            # aggregates mentioned only in HAVING still need their input
            # columns in the pre-aggregation projection
            for spec in aggregates:
                if spec.arg is not None and spec.arg not in select_refs:
                    select_refs.append(spec.arg)

        if (stmt.order_by or stmt.limit is not None) and parent_scope is not None:
            raise AnalysisError(
                "ORDER BY / LIMIT are only supported on the outermost query"
            )
        order_by: List[Tuple[str, bool]] = []
        for item in stmt.order_by:
            qualified, depth = scope.resolve(item.expr)
            if depth != 0:
                raise AnalysisError(
                    f"ORDER BY item {item.expr.text!r} resolves in an "
                    "enclosing block"
                )
            visible = output_refs if grouped else select_refs
            if qualified not in visible:
                raise AnalysisError(
                    f"ORDER BY item {item.expr.text!r} must appear in the "
                    "SELECT list"
                )
            order_by.append((qualified, item.descending))

        block = QueryBlock(
            tables=aliases,
            local_predicate=ex.conjoin(local) if local else None,
            correlations=correlations,
            link=link,
            children=children,
            select_refs=select_refs,
            distinct=stmt.distinct,
            order_by=order_by,
            limit=stmt.limit,
            group_by=group_by,
            aggregates=aggregates,
            having=having,
            output_refs=output_refs,
            residual=ex.conjoin(residual_parts) if residual_parts else None,
        )
        return block

    def _unique_alias(self, wanted: str) -> str:
        alias = wanted
        suffix = 2
        while alias in self._used_aliases:
            alias = f"{wanted}_{suffix}"
            suffix += 1
        self._used_aliases.add(alias)
        return alias

    def _select_list(self, stmt: A.SelectStmt, scope: _Scope) -> List[str]:
        refs: List[str] = []
        for item in stmt.items:
            if item.star:
                for alias, table_name in scope.aliases.items():
                    for col in self.db.table(table_name).schema.columns:
                        refs.append(f"{alias}.{col.name}")
                continue
            assert item.expr is not None
            if isinstance(item.expr, A.AggregateCall):
                raise AnalysisError(
                    "aggregate SELECT items in a subquery are only "
                    "supported as scalar subqueries (single aggregate item)"
                )
            qualified, depth = scope.resolve(item.expr)
            if depth != 0:
                raise AnalysisError(
                    f"SELECT item {item.expr.text!r} resolves in an enclosing "
                    "block; correlated SELECT items are not supported"
                )
            refs.append(qualified)
        return refs

    def _grouped_select_list(
        self,
        stmt: A.SelectStmt,
        scope: _Scope,
        group_by: List[str],
        aggregates: List[AggregateSpec],
        is_root: bool,
    ) -> Tuple[List[str], List[str]]:
        """SELECT list of a grouped block -> (input refs, output refs).

        *input refs* (``select_refs``) feed the aggregation: the group
        keys plus every aggregate argument, as a bag so COUNT and SUM
        see SQL multiplicities.  *output refs* name the final projected
        columns in SELECT order (group keys and synthetic aggregate
        names).  Subquery blocks expose exactly one group key.
        """
        if stmt.distinct:
            raise AnalysisError(
                "DISTINCT cannot be combined with GROUP BY / aggregates"
            )
        output_refs: List[str] = []
        for item in stmt.items:
            if item.star:
                raise AnalysisError(
                    "SELECT * cannot be combined with GROUP BY / aggregates"
                )
            assert item.expr is not None
            if isinstance(item.expr, A.AggregateCall):
                output_refs.append(
                    self._agg_output(item.expr, scope, aggregates)
                )
                continue
            qualified, depth = scope.resolve(item.expr)
            if depth != 0:
                raise AnalysisError(
                    f"SELECT item {item.expr.text!r} resolves in an "
                    "enclosing block; correlated SELECT items are not "
                    "supported"
                )
            if qualified not in group_by:
                raise AnalysisError(
                    f"SELECT item {item.expr.text!r} must appear in "
                    "GROUP BY when aggregates are present"
                )
            output_refs.append(qualified)
        if not is_root:
            non_agg = [r for r in output_refs if r in group_by]
            if len(stmt.items) != 1 or len(non_agg) != 1:
                raise AnalysisError(
                    "a grouped subquery must select exactly one grouping "
                    "column (its linked attribute)"
                )
        select_refs = list(group_by)
        for spec in aggregates:
            if spec.arg is not None and spec.arg not in select_refs:
                select_refs.append(spec.arg)
        if not select_refs:
            # a pure global aggregate (e.g. SELECT count(*) FROM ...):
            # any column carries the row multiplicity to the post-pass
            alias, table_name = next(iter(scope.aliases.items()))
            first = self.db.table(table_name).schema.columns[0].name
            select_refs = [f"{alias}.{first}"]
        return select_refs, output_refs

    def _agg_output(
        self,
        call: A.AggregateCall,
        scope: _Scope,
        aggregates: List[AggregateSpec],
    ) -> str:
        """Register an aggregate call; return its synthetic output name."""
        if call.star:
            func, arg = "count_star", None
            name = "count(*)"
        else:
            assert call.arg is not None
            qualified, depth = scope.resolve(call.arg)
            if depth != 0:
                raise AnalysisError(
                    f"aggregate argument {call.arg.text!r} resolves in an "
                    "enclosing block"
                )
            func, arg = call.func, qualified
            name = f"{func}({qualified})"
        for spec in aggregates:
            if spec.name == name:
                return name
        aggregates.append(AggregateSpec(func, arg, name))
        return name

    def _lower_having(
        self,
        pred: A.Predicate,
        scope: _Scope,
        group_by: List[str],
        aggregates: List[AggregateSpec],
    ) -> ex.Expr:
        """Lower HAVING over the grouped schema (keys + aggregate names)."""

        def value(v: A.ValueExpr) -> ex.Expr:
            if isinstance(v, A.Constant):
                return ex.Literal(v.value)
            if isinstance(v, A.AggregateCall):
                return ex.Col(self._agg_output(v, scope, aggregates))
            if isinstance(v, A.ColumnRef):
                qualified, depth = scope.resolve(v)
                if depth != 0:
                    raise AnalysisError(
                        f"HAVING item {v.text!r} resolves in an enclosing "
                        "block"
                    )
                if qualified not in group_by:
                    raise AnalysisError(
                        f"HAVING column {v.text!r} must appear in GROUP BY "
                        "or inside an aggregate"
                    )
                return ex.Col(qualified)
            if isinstance(v, A.BinaryArith):
                return ex.Arith(v.op, value(v.left), value(v.right))
            raise AnalysisError(
                f"unsupported HAVING value expression {v!r}"
            )

        def lower(p: A.Predicate) -> ex.Expr:
            if isinstance(p, A.ComparisonPred):
                return ex.Comparison(p.op, value(p.left), value(p.right))
            if isinstance(p, A.BetweenPred):
                return ex.Between(
                    value(p.operand), value(p.low), value(p.high)
                )
            if isinstance(p, A.IsNullPred):
                return ex.IsNull(value(p.operand), negated=p.negated)
            if isinstance(p, A.InListPred):
                return ex.InList(
                    value(p.operand),
                    tuple(value(i) for i in p.items),
                    negated=p.negated,
                )
            if isinstance(p, A.AndPred):
                return ex.And(lower(p.left), lower(p.right))
            if isinstance(p, A.OrPred):
                return ex.Or(lower(p.left), lower(p.right))
            if isinstance(p, A.NotPred):
                return ex.Not(lower(p.operand))
            raise AnalysisError(
                "subqueries are not supported inside HAVING"
            )

        return lower(pred)

    # ------------------------------------------------------------------ #
    # conjunct classification
    # ------------------------------------------------------------------ #

    def _classify(
        self,
        pred: A.Predicate,
        scope: _Scope,
        local: List[ex.Expr],
        correlations: List[Correlation],
        children: List[QueryBlock],
        residual_parts: List[ex.Expr],
    ) -> None:
        if isinstance(pred, A.ExistsPred):
            link = LinkSpec("not_exists" if pred.negated else "exists")
            children.append(self._analyze_block(pred.subquery, scope, link))
            return
        if isinstance(pred, A.InSubqueryPred):
            outer_ref = self._linking_column(pred.operand, scope)
            inner_ref, child = self._subquery_column(pred.subquery, scope)
            operator = "not_in" if pred.negated else "in"
            theta = "<>" if pred.negated else "="
            link = LinkSpec(operator, outer_ref, theta, inner_ref)
            children.append(self._relink(child, link))
            return
        if isinstance(pred, A.QuantifiedPred):
            outer_ref = self._linking_column(pred.operand, scope)
            inner_ref, child = self._subquery_column(pred.subquery, scope)
            link = LinkSpec(pred.quantifier, outer_ref, pred.op, inner_ref)
            children.append(self._relink(child, link))
            return
        if isinstance(pred, A.ComparisonPred) and _comparison_subquery(pred):
            children.append(self._scalar_link(pred, scope, mark=None))
            return
        if isinstance(pred, A.NotPred):
            if _contains_subquery(pred.operand):
                residual_parts.append(
                    ex.Not(self._lower_disjunct(pred.operand, scope, children))
                )
                return
            local.append(ex.Not(self._predicate_expr(pred.operand, scope)))
            return
        if _contains_subquery(pred):
            # OR (or nested AND) combining subqueries with other
            # predicates: decompose into marked child links plus a
            # residual expression over the marks
            residual_parts.append(self._lower_disjunct(pred, scope, children))
            return
        # plain predicate: local or correlated
        if isinstance(pred, A.ComparisonPred):
            corr = self._try_correlation(pred, scope)
            if corr is not None:
                correlations.append(corr)
                return
        expr, max_depth = self._predicate_expr_depth(pred, scope)
        if max_depth > 0:
            raise AnalysisError(
                f"correlated predicate {pred!r} is not a simple "
                "column/column comparison; outside the supported subset"
            )
        local.append(expr)

    def _lower_disjunct(
        self,
        pred: A.Predicate,
        scope: _Scope,
        children: List[QueryBlock],
    ) -> ex.Expr:
        """Lower a subquery-bearing predicate under OR / NOT.

        Each subquery predicate becomes a *marked* child link; its
        three-valued verdict surfaces as a mark column the returned
        expression references (paper tree expressions, extended with
        disjunctive linking predicates).
        """
        if isinstance(pred, A.ExistsPred):
            mark = self._next_mark()
            link = LinkSpec(
                "not_exists" if pred.negated else "exists", mark=mark
            )
            children.append(self._analyze_block(pred.subquery, scope, link))
            return ex.Col(mark)
        if isinstance(pred, A.InSubqueryPred):
            outer_ref = self._linking_column(pred.operand, scope)
            inner_ref, child = self._subquery_column(pred.subquery, scope)
            mark = self._next_mark()
            link = LinkSpec(
                "not_in" if pred.negated else "in",
                outer_ref,
                "<>" if pred.negated else "=",
                inner_ref,
                mark=mark,
            )
            children.append(self._relink(child, link))
            return ex.Col(mark)
        if isinstance(pred, A.QuantifiedPred):
            outer_ref = self._linking_column(pred.operand, scope)
            inner_ref, child = self._subquery_column(pred.subquery, scope)
            mark = self._next_mark()
            link = LinkSpec(
                pred.quantifier, outer_ref, pred.op, inner_ref, mark=mark
            )
            children.append(self._relink(child, link))
            return ex.Col(mark)
        if isinstance(pred, A.ComparisonPred) and _comparison_subquery(pred):
            mark = self._next_mark()
            children.append(self._scalar_link(pred, scope, mark=mark))
            return ex.Col(mark)
        if isinstance(pred, A.AndPred):
            return ex.And(
                self._lower_disjunct(pred.left, scope, children),
                self._lower_disjunct(pred.right, scope, children),
            )
        if isinstance(pred, A.OrPred):
            return ex.Or(
                self._lower_disjunct(pred.left, scope, children),
                self._lower_disjunct(pred.right, scope, children),
            )
        if isinstance(pred, A.NotPred):
            return ex.Not(self._lower_disjunct(pred.operand, scope, children))
        expr, depth = self._predicate_expr_depth(pred, scope)
        if depth > 0:
            raise AnalysisError(
                f"correlated predicate {pred!r} under OR/NOT is outside "
                "the supported subset"
            )
        return expr

    def _scalar_link(
        self, pred: A.ComparisonPred, scope: _Scope, mark: Optional[str]
    ) -> QueryBlock:
        """``lhs θ (SELECT agg(...))`` -> an aggregate-linked child block."""
        if isinstance(pred.left, A.ScalarSubquery) and isinstance(
            pred.right, A.ScalarSubquery
        ):
            raise AnalysisError(
                "comparing two scalar subqueries is not supported"
            )
        if isinstance(pred.right, A.ScalarSubquery):
            sub, outer, theta = pred.right.subquery, pred.left, pred.op
        else:
            assert isinstance(pred.left, A.ScalarSubquery)
            sub, outer, theta = pred.left.subquery, pred.right, flip_op(pred.op)
        outer_ref: Optional[str] = None
        outer_const: Optional[Tuple[object]] = None
        if isinstance(outer, A.ColumnRef):
            outer_ref = self._linking_column(outer, scope)
        elif isinstance(outer, A.Constant):
            outer_const = (outer.value,)
        else:
            raise AnalysisError(
                "a scalar subquery can only be compared against a plain "
                "column or a literal"
            )
        agg_func, inner_ref, child = self._scalar_subquery(sub, scope)
        link = LinkSpec(
            AGG_OP,
            outer_ref,
            theta,
            inner_ref,
            agg_func=agg_func,
            outer_const=outer_const,
            mark=mark,
        )
        return self._relink(child, link)

    def _scalar_subquery(
        self, stmt: A.SelectStmt, scope: _Scope
    ) -> Tuple[str, Optional[str], QueryBlock]:
        """Analyze ``(SELECT agg(...) FROM ...)``.

        Returns ``(agg_func, inner_ref, child_block)`` where *inner_ref*
        is the qualified aggregate argument (None for ``COUNT(*)``).
        The single ungrouped aggregate item guarantees exactly one row.
        """
        if stmt.group_by or stmt.having is not None:
            raise AnalysisError(
                "a scalar subquery must not use GROUP BY / HAVING (it "
                "could yield more than one row)"
            )
        if stmt.distinct:
            raise AnalysisError("a scalar subquery must not use DISTINCT")
        if len(stmt.items) != 1 or not isinstance(
            stmt.items[0].expr, A.AggregateCall
        ):
            raise AnalysisError(
                "a scalar subquery must select exactly one aggregate"
            )
        call = stmt.items[0].expr
        if call.star:
            inner_items: Tuple[A.SelectItem, ...] = ()
            agg_func = "count_star"
        else:
            inner_items = (A.SelectItem(expr=call.arg),)
            agg_func = call.func
        child = self._analyze_block(
            replace(stmt, items=inner_items), scope, link=None
        )
        inner_ref = child.select_refs[0] if child.select_refs else None
        return agg_func, inner_ref, child

    def _relink(self, block: QueryBlock, link: LinkSpec) -> QueryBlock:
        block.link = link
        return block

    def _linking_column(self, operand: A.ValueExpr, scope: _Scope) -> str:
        if not isinstance(operand, A.ColumnRef):
            raise AnalysisError(
                "the linking attribute must be a plain column reference"
            )
        qualified, _depth = scope.resolve(operand)
        return qualified

    def _subquery_column(
        self, stmt: A.SelectStmt, scope: _Scope
    ) -> Tuple[str, QueryBlock]:
        """Analyze a quantified/IN subquery; its single SELECT item is the
        linked attribute."""
        child = self._analyze_block(stmt, scope, link=None)
        if child.group_by or child.aggregates or child.having is not None:
            # _grouped_select_list guarantees exactly one selected group
            # key; the reduce-time aggregation projects it out
            keys = [r for r in child.output_refs if r in child.group_by]
            return keys[0], child
        if len(child.select_refs) != 1:
            raise AnalysisError(
                "a subquery used with IN / SOME / ANY / ALL must select "
                f"exactly one column, got {child.select_refs}"
            )
        return child.select_refs[0], child

    def _try_correlation(
        self, pred: A.ComparisonPred, scope: _Scope
    ) -> Optional[Correlation]:
        """Comparison between one inner and one outer column -> Correlation."""
        if not (
            isinstance(pred.left, A.ColumnRef)
            and isinstance(pred.right, A.ColumnRef)
        ):
            return None
        left_q, left_d = scope.resolve(pred.left)
        right_q, right_d = scope.resolve(pred.right)
        if left_d == 0 and right_d > 0:
            from ..engine.types import flip_op

            return Correlation(right_q, flip_op(pred.op), left_q)
        if left_d > 0 and right_d == 0:
            return Correlation(left_q, pred.op, right_q)
        return None

    # ------------------------------------------------------------------ #
    # expression lowering
    # ------------------------------------------------------------------ #

    def _value_expr_depth(
        self, value: A.ValueExpr, scope: _Scope
    ) -> Tuple[ex.Expr, int]:
        if isinstance(value, A.Constant):
            return ex.Literal(value.value), 0
        if isinstance(value, A.ColumnRef):
            qualified, depth = scope.resolve(value)
            return ex.Col(qualified), depth
        if isinstance(value, A.BinaryArith):
            left, dl = self._value_expr_depth(value.left, scope)
            right, dr = self._value_expr_depth(value.right, scope)
            return ex.Arith(value.op, left, right), max(dl, dr)
        if isinstance(value, A.ScalarSubquery):
            raise AnalysisError(
                "scalar subqueries may only appear as one side of a "
                "comparison predicate"
            )
        if isinstance(value, A.AggregateCall):
            raise AnalysisError(
                "aggregates are only allowed in the SELECT list, in "
                "HAVING, or in a scalar subquery — not in WHERE"
            )
        raise AnalysisError(f"unsupported value expression {value!r}")

    def _predicate_expr_depth(
        self, pred: A.Predicate, scope: _Scope
    ) -> Tuple[ex.Expr, int]:
        if isinstance(pred, A.ComparisonPred):
            left, dl = self._value_expr_depth(pred.left, scope)
            right, dr = self._value_expr_depth(pred.right, scope)
            return ex.Comparison(pred.op, left, right), max(dl, dr)
        if isinstance(pred, A.BetweenPred):
            operand, d0 = self._value_expr_depth(pred.operand, scope)
            low, d1 = self._value_expr_depth(pred.low, scope)
            high, d2 = self._value_expr_depth(pred.high, scope)
            return ex.Between(operand, low, high), max(d0, d1, d2)
        if isinstance(pred, A.IsNullPred):
            operand, d = self._value_expr_depth(pred.operand, scope)
            return ex.IsNull(operand, negated=pred.negated), d
        if isinstance(pred, A.InListPred):
            operand, d = self._value_expr_depth(pred.operand, scope)
            items = []
            for item in pred.items:
                item_expr, di = self._value_expr_depth(item, scope)
                items.append(item_expr)
                d = max(d, di)
            return ex.InList(operand, tuple(items), negated=pred.negated), d
        if isinstance(pred, A.AndPred):
            left, dl = self._predicate_expr_depth(pred.left, scope)
            right, dr = self._predicate_expr_depth(pred.right, scope)
            return ex.And(left, right), max(dl, dr)
        if isinstance(pred, A.OrPred):
            left, dl = self._predicate_expr_depth(pred.left, scope)
            right, dr = self._predicate_expr_depth(pred.right, scope)
            return ex.Or(left, right), max(dl, dr)
        if isinstance(pred, A.NotPred):
            inner, d = self._predicate_expr_depth(pred.operand, scope)
            return ex.Not(inner), d
        raise AnalysisError(f"unsupported predicate {pred!r}")

    def _predicate_expr(self, pred: A.Predicate, scope: _Scope) -> ex.Expr:
        expr, _depth = self._predicate_expr_depth(pred, scope)
        return expr


def _conjuncts(pred: A.Predicate) -> List[A.Predicate]:
    if isinstance(pred, A.AndPred):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def _comparison_subquery(pred: A.ComparisonPred) -> bool:
    """Whether either side of a comparison is a scalar subquery."""
    return isinstance(pred.left, A.ScalarSubquery) or isinstance(
        pred.right, A.ScalarSubquery
    )


def _contains_subquery(pred: A.Predicate) -> bool:
    if isinstance(pred, (A.ExistsPred, A.InSubqueryPred, A.QuantifiedPred)):
        return True
    if isinstance(pred, A.ComparisonPred):
        return _comparison_subquery(pred)
    if isinstance(pred, (A.AndPred, A.OrPred)):
        return _contains_subquery(pred.left) or _contains_subquery(pred.right)
    if isinstance(pred, A.NotPred):
        return _contains_subquery(pred.operand)
    return False


def analyze(stmt: A.SelectStmt, db: Database) -> NestedQuery:
    """Lower a parsed statement into the normalized block model."""
    return Analyzer(db).analyze(stmt)


def compile_sql(text: str, db: Database) -> NestedQuery:
    """Parse + analyze SQL text in one step."""
    return analyze(parse(text), db)
