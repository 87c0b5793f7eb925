"""External differential oracle: cross-check strategies against real engines.

The internal fuzz oracle compares our strategies against each other; a
shared misunderstanding of SQL semantics would pass it silently.  This
package grounds every strategy in an *independent* implementation: it
loads the same :class:`~repro.engine.catalog.Database` into a real
engine (stdlib SQLite always; DuckDB when installed), runs the same SQL
— re-rendered in the engine's dialect, with a 3VL-preserving rewrite of
the quantified predicates SQLite lacks — and diffs the result bags
under canonical NULL handling.

Entry points:

* :func:`cross_check` / :func:`verify_or_raise` — the library API
  (``PreparedQuery.verify`` wraps them);
* ``repro diff`` — one-off cross-checks from the CLI;
* ``repro fuzz --oracle=sqlite|duckdb|internal`` — the fuzz runner's
  external mode (divergences ddmin-shrink into the corpus);
* ``tests/oracle/test_paper_queries.py`` — the six paper queries
  (:func:`repro.tpch.paper_query_suite`) against every installed engine;
* the known-divergence registry (:mod:`repro.oracle.known`) — expected
  engine disagreements, documented and asserted-as-expected.
"""

from __future__ import annotations

from .adapter import (
    ADAPTER_FACTORIES,
    EngineAdapter,
    InternalAdapter,
    adapter_names,
    engine_available,
    make_adapter,
)
from ..sql.unparse import Dialect, render_for
from .dialect import DUCKDB, SQLITE, comparable
from .diff import (
    OracleComparison,
    RowDiff,
    canonical_row,
    canonical_value,
    diff_bags,
)
from .known import (
    KnownDivergence,
    clear_registered,
    find_known,
    known_divergences,
    register_known_divergence,
    registry_report,
    sql_digest,
)
from .verify import cross_check, verify_or_raise

__all__ = [
    "ADAPTER_FACTORIES",
    "DUCKDB",
    "SQLITE",
    "Dialect",
    "EngineAdapter",
    "InternalAdapter",
    "KnownDivergence",
    "OracleComparison",
    "RowDiff",
    "adapter_names",
    "canonical_row",
    "canonical_value",
    "clear_registered",
    "comparable",
    "cross_check",
    "diff_bags",
    "engine_available",
    "find_known",
    "known_divergences",
    "make_adapter",
    "register_known_divergence",
    "registry_report",
    "render_for",
    "sql_digest",
    "verify_or_raise",
]
