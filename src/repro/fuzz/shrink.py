"""Minimization of failing (query, database) pairs.

Two alternating passes run to a fixpoint:

* **data shrinking** — per table, a ddmin-style sweep that removes
  contiguous chunks of rows (halves, quarters, ... down to single rows)
  while the failure persists;
* **query shrinking** — structural simplifications of the AST: drop a
  WHERE conjunct anywhere in the block tree (which can delete a whole
  subquery branch and reduce nesting depth), drop DISTINCT, drop a
  trailing SELECT item, drop the root's second FROM table when no
  predicate references it.

The caller supplies the *interesting-ness* predicate (usually "the
differential runner still reports a disagreement/error"), so the same
machinery minimizes genuine strategy bugs and injected self-test bugs
alike.  Everything is deterministic — no randomness — so a minimized
case is stable across runs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..sql import ast as A
from ..errors import InvalidArgumentError
from .runner import Failure, FuzzCase

#: Failure kinds worth preserving while shrinking.  A candidate that
#: merely fails to compile is *not* interesting: it means the
#: simplification left dangling references, not that the engine is wrong.
#: External-oracle kinds shrink like internal ones: the check re-loads
#: the candidate database into the engine, so ddmin stays sound.
INTERESTING_KINDS = (
    "disagreement",
    "error",
    "metrics",
    "trace",
    "external-divergence",
    "external-error",
)


def is_interesting(failure: Optional[Failure]) -> bool:
    return failure is not None and failure.kind in INTERESTING_KINDS


def shrink_case(
    case: FuzzCase,
    check: Callable[[FuzzCase], Optional[Failure]],
    max_passes: int = 8,
) -> Tuple[FuzzCase, Failure]:
    """Minimize *case* while ``check`` keeps reporting an interesting
    failure.  Returns the smallest case found and its failure.

    *check* runs the candidate and returns the failure (or None); the
    original case must itself be interesting.
    """
    failure = check(case)
    if not is_interesting(failure):
        raise InvalidArgumentError("shrink_case needs a case that currently fails")
    assert failure is not None

    for _ in range(max_passes):
        smaller, failure, progressed = _one_pass(case, check, failure)
        case = smaller
        if not progressed:
            break
    return case, failure


def _one_pass(
    case: FuzzCase,
    check: Callable[[FuzzCase], Optional[Failure]],
    failure: Failure,
) -> Tuple[FuzzCase, Failure, bool]:
    progressed = False

    # -- data: ddmin over each table's rows --------------------------- #
    for table in case.db_spec.tables:
        rows = list(table.rows)
        chunk = max(1, len(rows) // 2)
        while chunk >= 1 and rows:
            start = 0
            while start < len(rows):
                candidate_rows = rows[:start] + rows[start + chunk:]
                candidate = replace(
                    case, db_spec=case.db_spec.with_rows(table.name, candidate_rows)
                )
                result = check(candidate)
                if is_interesting(result):
                    assert result is not None
                    rows = candidate_rows
                    case = candidate
                    failure = result
                    progressed = True
                    # stay at the same start: the next chunk shifted in
                else:
                    start += chunk
            chunk //= 2

    # -- query: try structural simplifications to a fixpoint ---------- #
    simplified = True
    while simplified:
        simplified = False
        for candidate_stmt in _stmt_variants(case.stmt):
            candidate = replace(case, stmt=candidate_stmt)
            result = check(candidate)
            if is_interesting(result):
                assert result is not None
                case = candidate
                failure = result
                progressed = True
                simplified = True
                break

    return case, failure, progressed


# ---------------------------------------------------------------------- #
# AST simplification candidates
# ---------------------------------------------------------------------- #


def _stmt_variants(stmt: A.SelectStmt) -> Iterator[A.SelectStmt]:
    """Strictly smaller variants of *stmt*, most aggressive first."""
    conjuncts = _conjuncts(stmt.where)

    # drop one conjunct entirely (dropping a subquery conjunct removes a
    # whole branch of the block tree)
    for i in range(len(conjuncts)):
        yield replace(
            stmt, where=_rejoin(conjuncts[:i] + conjuncts[i + 1:])
        )

    # recurse: simplify the subquery inside a subquery-bearing conjunct
    for i, conjunct in enumerate(conjuncts):
        subquery = _subquery_of(conjunct)
        if subquery is None:
            continue
        for sub_variant in _stmt_variants(subquery):
            new_conjunct = _with_subquery(conjunct, sub_variant)
            yield replace(
                stmt,
                where=_rejoin(
                    conjuncts[:i] + [new_conjunct] + conjuncts[i + 1:]
                ),
            )

    if stmt.distinct:
        yield replace(stmt, distinct=False)

    # drop a trailing SELECT item (keep at least one)
    if len(stmt.items) > 1:
        yield replace(stmt, items=stmt.items[:-1])

    # drop the second FROM table if nothing else references its alias
    if len(stmt.tables) > 1:
        victim = stmt.tables[-1]
        alias = victim.effective_alias
        trimmed = replace(stmt, tables=stmt.tables[:-1])
        if alias not in _referenced_tables(trimmed):
            yield trimmed


def _conjuncts(pred: Optional[A.Predicate]) -> List[A.Predicate]:
    if pred is None:
        return []
    if isinstance(pred, A.AndPred):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def _rejoin(conjuncts: Sequence[A.Predicate]) -> Optional[A.Predicate]:
    if not conjuncts:
        return None
    out = conjuncts[0]
    for pred in conjuncts[1:]:
        out = A.AndPred(out, pred)
    return out


def _subquery_of(pred: A.Predicate) -> Optional[A.SelectStmt]:
    if isinstance(pred, (A.ExistsPred, A.InSubqueryPred)):
        return pred.subquery
    if isinstance(pred, A.QuantifiedPred):
        return pred.subquery
    return None


def _with_subquery(pred: A.Predicate, subquery: A.SelectStmt) -> A.Predicate:
    assert isinstance(pred, (A.ExistsPred, A.InSubqueryPred, A.QuantifiedPred))
    return replace(pred, subquery=subquery)


def _referenced_tables(stmt: A.SelectStmt) -> set:
    """Every table qualifier mentioned anywhere in *stmt* (this block and
    all nested subqueries)."""
    refs: set = set()

    def value(expr: A.ValueExpr) -> None:
        if isinstance(expr, A.ColumnRef) and expr.table:
            refs.add(expr.table)
        elif isinstance(expr, A.BinaryArith):
            value(expr.left)
            value(expr.right)

    def pred(p: Optional[A.Predicate]) -> None:
        if p is None:
            return
        if isinstance(p, (A.AndPred, A.OrPred)):
            pred(p.left)
            pred(p.right)
        elif isinstance(p, A.NotPred):
            pred(p.operand)
        elif isinstance(p, A.ComparisonPred):
            value(p.left)
            value(p.right)
        elif isinstance(p, A.BetweenPred):
            value(p.operand)
            value(p.low)
            value(p.high)
        elif isinstance(p, A.IsNullPred):
            value(p.operand)
        elif isinstance(p, A.InListPred):
            value(p.operand)
            for item in p.items:
                value(item)
        elif isinstance(p, A.ExistsPred):
            select(p.subquery)
        elif isinstance(p, A.InSubqueryPred):
            value(p.operand)
            select(p.subquery)
        elif isinstance(p, A.QuantifiedPred):
            value(p.operand)
            select(p.subquery)

    def select(s: A.SelectStmt) -> None:
        for item in s.items:
            if item.expr is not None and item.expr.table:
                refs.add(item.expr.table)
        pred(s.where)

    select(stmt)
    return refs
