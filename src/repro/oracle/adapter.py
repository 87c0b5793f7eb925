"""The engine-adapter protocol and its registry.

An adapter owns one external engine connection: it loads a
:class:`~repro.engine.catalog.Database` into the engine, executes
dialect-rendered SQL, and exposes the engine's plan text.  Adapters are
cheap to build and single-use-friendly — the fuzzer builds a fresh one
per case; ``PreparedQuery.verify`` keeps one per call.

Registering a new engine means subclassing :class:`EngineAdapter`,
giving it a :class:`~repro.sql.unparse.Dialect` (``SQLITE`` or
``DUCKDB`` from :mod:`repro.oracle.dialect` unless the engine spells
something differently), and listing the constructor in
:data:`ADAPTER_FACTORIES` (see DESIGN.md §12 for the walkthrough).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..engine.catalog import Database
from ..errors import OracleError, OracleUnavailableError
from ..sql import ast as A
from ..sql.parser import parse
from ..sql.unparse import REPRO, Dialect, render_for


class EngineAdapter:
    """Base class for external (and internal) engine adapters."""

    #: registry name, e.g. ``"sqlite"``
    name: str = "?"
    #: the dialect the adapter renders SQL in
    dialect: Dialect

    def load(self, db: Database) -> None:
        """(Re)create every table of *db* inside the engine."""
        raise NotImplementedError

    def execute_sql(self, sql: str) -> List[tuple]:
        """Run already-rendered dialect SQL; DB-API rows (None = NULL)."""
        raise NotImplementedError

    def explain(self, sql: str) -> str:
        """The engine's plan text for dialect SQL (best effort)."""
        return ""

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------ #
    # conveniences shared by every adapter
    # ------------------------------------------------------------------ #

    def execute(self, stmt: A.SelectStmt) -> Tuple[List[tuple], str, float]:
        """Render and run *stmt*; ``(rows, dialect_sql, seconds)``."""
        sql = render_for(stmt, self.dialect)
        start = time.perf_counter()
        rows = self.execute_sql(sql)
        return rows, sql, time.perf_counter() - start

    def execute_text(self, sql: str) -> Tuple[List[tuple], str, float]:
        """Parse our SQL text, then :meth:`execute` it."""
        return self.execute(parse(sql))

    def __enter__(self) -> "EngineAdapter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class InternalAdapter(EngineAdapter):
    """The tuple-iteration evaluator behind the adapter protocol.

    ``repro diff --engine internal`` and ``PreparedQuery.verify(engine=
    "internal")`` go through this, so the external and internal oracles
    share one code path (and one report format).  The fuzzer never
    builds it: ``repro fuzz --oracle=internal`` is the runner's own
    strategies-vs-``nested-iteration`` check.  Queries run as a user's
    do, through ``repro.connect(db).prepare(sql)``.
    """

    name = "internal"
    dialect = REPRO

    def __init__(self) -> None:
        self._session = None

    def load(self, db: Database) -> None:
        from ..session import connect

        self._session = connect(db)

    def _prepare(self, sql: str):
        if self._session is None:
            raise OracleError("internal adapter: load() a database first")
        return self._session.prepare(sql)

    def execute_sql(self, sql: str) -> List[tuple]:
        result = self._prepare(sql).execute(strategy="nested-iteration")
        return list(result.rows)

    def explain(self, sql: str) -> str:
        plan = self._prepare(sql).explain(strategy="nested-iteration")
        return plan.operators


def _make_sqlite() -> EngineAdapter:
    from .sqlite_adapter import SqliteAdapter

    return SqliteAdapter()


def _make_duckdb() -> EngineAdapter:
    from .duckdb_adapter import DuckDbAdapter

    return DuckDbAdapter()


#: engine name -> adapter constructor (may raise OracleUnavailableError)
ADAPTER_FACTORIES: Dict[str, Callable[[], EngineAdapter]] = {
    "sqlite": _make_sqlite,
    "duckdb": _make_duckdb,
    "internal": InternalAdapter,
}


def adapter_names() -> List[str]:
    """Every registered adapter name (available or not)."""
    return sorted(ADAPTER_FACTORIES)


def make_adapter(engine: str, db: Optional[Database] = None) -> EngineAdapter:
    """Build an adapter by name, optionally loading *db* into it.

    Raises :class:`OracleUnavailableError` for unknown names and for
    engines whose package is not installed (DuckDB).
    """
    factory = ADAPTER_FACTORIES.get(engine)
    if factory is None:
        raise OracleUnavailableError(
            f"unknown oracle engine {engine!r}; "
            f"registered: {', '.join(adapter_names())}"
        )
    adapter = factory()
    if db is not None:
        adapter.load(db)
    return adapter


def engine_available(engine: str) -> bool:
    """Whether :func:`make_adapter` would succeed for *engine*."""
    try:
        make_adapter(engine).close()
        return True
    except OracleUnavailableError:
        return False
