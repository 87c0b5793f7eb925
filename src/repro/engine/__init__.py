"""Flat relational engine substrate.

Everything the nested relational core and the baseline strategies stand
on: the SQL value model with three-valued logic (:mod:`.types`), schemas
(:mod:`.schema`), materialized relations (:mod:`.relation`), expressions
(:mod:`.expressions`), physical operators (:mod:`.operators`), indexes
(:mod:`.index`), the catalog (:mod:`.catalog`) and cost instrumentation
(:mod:`.metrics`).
"""

from .types import (
    FALSE,
    NULL,
    TRUE,
    UNKNOWN,
    SqlValue,
    TriBool,
    is_null,
    sql_compare,
    tri_all,
    tri_any,
)
from .schema import Column, Schema, parse_ref
from .relation import Relation, Row
from .expressions import (
    And,
    Arith,
    Between,
    Col,
    Comparison,
    EvalContext,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    cmp,
    conjoin,
    eq,
    split_conjuncts,
    truth,
)
from .catalog import Database, Table
from .index import HashIndex
from .metrics import Metrics, collect, current_metrics
from .trace import (
    Span,
    Trace,
    Tracer,
    current_tracer,
    reconcile_with_metrics,
    render_trace,
    trace_invariant_violations,
    tracing,
    validate_trace_dict,
)

__all__ = [
    "NULL",
    "TRUE",
    "FALSE",
    "UNKNOWN",
    "SqlValue",
    "TriBool",
    "is_null",
    "sql_compare",
    "tri_all",
    "tri_any",
    "Column",
    "Schema",
    "parse_ref",
    "Relation",
    "Row",
    "Expr",
    "Col",
    "Literal",
    "Comparison",
    "And",
    "Or",
    "Not",
    "IsNull",
    "Between",
    "InList",
    "Arith",
    "EvalContext",
    "eq",
    "cmp",
    "conjoin",
    "split_conjuncts",
    "truth",
    "Database",
    "Table",
    "HashIndex",
    "Metrics",
    "collect",
    "current_metrics",
    "Span",
    "Trace",
    "Tracer",
    "current_tracer",
    "reconcile_with_metrics",
    "render_trace",
    "trace_invariant_violations",
    "tracing",
    "validate_trace_dict",
]
