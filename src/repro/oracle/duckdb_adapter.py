"""The optional DuckDB adapter.

DuckDB is not a baked-in dependency; importing this module raises
:class:`~repro.errors.OracleUnavailableError` when the package is
absent, and every caller (CLI, fuzzer, tests) treats that as
"auto-skip".  Unlike SQLite, DuckDB needs declared column types, so the
loader infers one per column from the values present (NULL-only columns
default to INTEGER, which never affects comparisons because every cell
is NULL).
"""

from __future__ import annotations

import datetime
from typing import List

from ..engine.catalog import Database
from ..engine.types import is_null
from ..errors import OracleError, OracleUnavailableError
from .adapter import EngineAdapter
from .dialect import DUCKDB

try:  # pragma: no cover - exercised only where duckdb is installed
    import duckdb as _duckdb
except ImportError:  # pragma: no cover
    _duckdb = None


def _column_type(values: List[object]) -> str:
    kinds = {type(v) for v in values if not is_null(v)}
    if not kinds:
        return "INTEGER"
    if kinds <= {bool}:
        return "BOOLEAN"
    if kinds <= {int, bool}:
        return "BIGINT"
    if kinds <= {int, float, bool}:
        return "DOUBLE"
    if kinds <= {str}:
        return "VARCHAR"
    if kinds <= {datetime.date}:
        return "DATE"
    raise OracleError(
        f"cannot infer a DuckDB column type for value types "
        f"{sorted(k.__name__ for k in kinds)}"
    )


class DuckDbAdapter(EngineAdapter):
    name = "duckdb"
    dialect = DUCKDB

    def __init__(self) -> None:
        if _duckdb is None:
            raise OracleUnavailableError(
                "duckdb is not installed; pip install duckdb to enable "
                "the DuckDB oracle"
            )
        self.connection = _duckdb.connect(":memory:")

    @property
    def engine_version(self) -> str:
        return getattr(_duckdb, "__version__", "?")

    def load(self, db: Database) -> None:
        for name, table in db.tables.items():
            quoted = self.dialect.ident(name)
            self.connection.execute(f"DROP TABLE IF EXISTS {quoted}")
            decls = []
            for i, column in enumerate(table.schema.columns):
                values = [row[i] for row in table.relation.rows]
                decls.append(
                    f"{self.dialect.ident(column.name)} "
                    f"{_column_type(values)}"
                )
            self.connection.execute(
                f"CREATE TABLE {quoted} ({', '.join(decls)})"
            )
            if table.relation.rows:
                placeholders = ", ".join("?" * len(table.schema))
                self.connection.executemany(
                    f"INSERT INTO {quoted} VALUES ({placeholders})",
                    [
                        tuple(None if is_null(v) else v for v in row)
                        for row in table.relation.rows
                    ],
                )

    def execute_sql(self, sql: str) -> List[tuple]:
        try:
            return self.connection.execute(sql).fetchall()
        except Exception as exc:  # duckdb raises its own hierarchy
            raise OracleError(f"duckdb rejected the query: {exc}") from exc

    def explain(self, sql: str) -> str:
        """``EXPLAIN ANALYZE`` text (plan shape plus operator timings)."""
        try:
            rows = self.connection.execute(f"EXPLAIN ANALYZE {sql}").fetchall()
        except Exception as exc:
            raise OracleError(f"duckdb could not plan the query: {exc}") from exc
        return "\n".join(str(part) for row in rows for part in row[1:])

    def close(self) -> None:
        self.connection.close()
