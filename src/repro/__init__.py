"""repro — A Nested Relational Approach to Processing SQL Subqueries.

Reproduction of Cao & Badia, SIGMOD 2005.  The package provides:

* a flat relational engine with SQL three-valued logic
  (:mod:`repro.engine`),
* the paper's extended nested relational algebra — nest, linking
  predicates, linking/pseudo selection — and the nested relational
  evaluation strategies (:mod:`repro.core`),
* a SQL front-end for the non-aggregate-subquery subset
  (:mod:`repro.sql`),
* the baselines the paper compares against (:mod:`repro.baselines`),
* a TPC-H substrate and the paper's benchmark queries
  (:mod:`repro.tpch`), and
* the figure-by-figure benchmark harness (:mod:`repro.bench`).

Quickstart::

    import repro

    db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))
    session = repro.connect(db)
    query = session.prepare(repro.tpch.query1("1993-01-01", "1994-01-01"))
    result = query.execute()                             # auto strategy
    fast = query.execute(backend="vector")               # columnar engine
    oracle = query.execute(strategy="nested-iteration")
    assert result == oracle == fast
"""

from . import engine
from . import core
from . import sql
from . import baselines
from . import tpch
from . import fuzz
from . import oracle
from .engine import (
    Column,
    Database,
    Metrics,
    NULL,
    Relation,
    Schema,
    collect,
    is_null,
)
from .core import (
    Correlation,
    LinkSpec,
    NestedQuery,
    NestedRelation,
    NestedRelationalStrategy,
    QueryBlock,
    SetPredicate,
    TreeExpression,
    linking_selection,
    nest,
    nest_sorted,
    pseudo_selection,
    unnest,
)
from .core import Plan, PlannerDecision
from . import strategies
from .strategies import available_strategies
from .errors import ReproError
from .options import ExecutionOptions
from .session import PreparedQuery, Session, connect
from .sql import compile_sql, parse

__version__ = "1.3.0"

__all__ = [
    "engine",
    "core",
    "sql",
    "baselines",
    "tpch",
    "fuzz",
    "oracle",
    "NULL",
    "is_null",
    "Column",
    "Schema",
    "Relation",
    "Database",
    "Metrics",
    "collect",
    "NestedQuery",
    "QueryBlock",
    "LinkSpec",
    "Correlation",
    "NestedRelation",
    "SetPredicate",
    "TreeExpression",
    "nest",
    "nest_sorted",
    "unnest",
    "linking_selection",
    "pseudo_selection",
    "NestedRelationalStrategy",
    "available_strategies",
    "compile_sql",
    "parse",
    "connect",
    "Session",
    "PreparedQuery",
    "ExecutionOptions",
    "Plan",
    "PlannerDecision",
    "strategies",
    "ReproError",
    "__version__",
]
