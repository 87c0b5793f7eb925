"""Selection: keep the rows a predicate makes definitely TRUE.

The join family lives in :mod:`repro.engine.operators.joins`; grouping
in :mod:`repro.engine.operators.aggregate`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..expressions import Expr, bind_truth
from ..governor import checkpoint, current_governor
from ..metrics import current_metrics
from ..relation import Relation, Row
from ..trace import CONTRACT_FILTERING, Span, op_span
from ..types import TRUE

#: rows between cooperative checkpoints while an operator runs under a
#: governor — bounds timeout overshoot by the time 512 rows take
CHECKPOINT_EVERY = 512


def checkpointed(rows: List[Row], weight: int = 1) -> Iterable[Row]:
    """*rows* themselves when no governor is installed; under one, the
    same rows with a checkpoint before each 512 rows' worth of work,
    where handling one row is *weight* rows' worth."""
    if current_governor() is None:
        return rows
    return _checkpointing(rows, weight)


def _checkpointing(rows: List[Row], weight: int) -> Iterable[Row]:
    budget = CHECKPOINT_EVERY
    for row in rows:
        budget -= weight
        if budget <= 0:
            checkpoint("operator-rows")
            budget = CHECKPOINT_EVERY
        yield row


def charge_in(span: Optional[Span], rows: int) -> None:
    """Charge the *rows* an operator read of its input: ``rows_scanned``,
    and ``rows_in`` on its span."""
    if rows:
        current_metrics().add("rows_scanned", rows)
        if span is not None:
            span.add("rows_in", rows)


def charge_out(span: Optional[Span], rows: int, padded: int = 0) -> None:
    """Charge the *rows* an operator emitted, *padded* of them padded
    with NULLs: ``rows_out`` (also on its span) and ``null_padded_rows``."""
    metrics = current_metrics()
    if padded:
        metrics.add("null_padded_rows", padded)
    if rows:
        metrics.add("rows_out", rows)
        if span is not None:
            span.add("rows_out", rows)


def filter_relation(source: Relation, predicate: Expr) -> Relation:
    """The rows of *source* whose *predicate* is definitely TRUE (SQL
    WHERE: FALSE and UNKNOWN rows are both dropped)."""
    out: List[Row] = []
    seen = 0
    with op_span("Filter", contract=CONTRACT_FILTERING) as span:
        holds = bind_truth(predicate, source.schema)
        try:
            for row in checkpointed(source.rows):
                seen += 1
                if holds(row) is TRUE:
                    out.append(row)
        finally:
            charge_in(span, seen)
            if seen:
                current_metrics().add("predicate_evals", seen)
            charge_out(span, len(out))
    return Relation.adopt(source.schema, out)
