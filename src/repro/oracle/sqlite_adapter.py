"""The stdlib ``sqlite3`` adapter — the always-available external engine.

Tables are created with *no* declared column types so SQLite's column
affinity never coerces a value: parameterized inserts store exactly the
Python objects our engine holds (ints as INTEGER, floats as REAL,
strings as TEXT, dates as ISO-8601 TEXT, NULL as NULL).  Catalog hash
indexes are mirrored as SQLite indexes so ``EXPLAIN QUERY PLAN`` shows
comparable access-path choices.
"""

from __future__ import annotations

import datetime
import sqlite3
from typing import List

from ..engine.catalog import Database
from ..engine.types import is_null
from ..errors import OracleError
from .adapter import EngineAdapter
from .dialect import SQLITE


def _storable(value: object) -> object:
    if is_null(value):
        return None
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


class SqliteAdapter(EngineAdapter):
    name = "sqlite"
    dialect = SQLITE

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:")

    @property
    def engine_version(self) -> str:
        return sqlite3.sqlite_version

    def load(self, db: Database) -> None:
        cur = self.connection.cursor()
        for name, table in db.tables.items():
            quoted = self.dialect.ident(name)
            cur.execute(f"DROP TABLE IF EXISTS {quoted}")
            columns = ", ".join(
                self.dialect.ident(c.name) for c in table.schema.columns
            )
            cur.execute(f"CREATE TABLE {quoted} ({columns})")
            if table.relation.rows:
                placeholders = ", ".join("?" * len(table.schema))
                cur.executemany(
                    f"INSERT INTO {quoted} VALUES ({placeholders})",
                    [
                        tuple(_storable(v) for v in row)
                        for row in table.relation.rows
                    ],
                )
            for i, refs in enumerate(table.hash_indexes):
                self._index(cur, name, i, [r.split(".")[-1] for r in refs])
        self.connection.commit()

    def _index(self, cur, table: str, n: int, columns: List[str]) -> None:
        index_name = self.dialect.ident(f"idx_{table}_{n}")
        cols = ", ".join(self.dialect.ident(c) for c in columns)
        quoted = self.dialect.ident(table)
        cur.execute(
            f"CREATE INDEX IF NOT EXISTS {index_name} ON {quoted} ({cols})"
        )

    def execute_sql(self, sql: str) -> List[tuple]:
        try:
            return self.connection.execute(sql).fetchall()
        except sqlite3.Error as exc:
            raise OracleError(f"sqlite rejected the query: {exc}") from exc

    def explain(self, sql: str) -> str:
        """``EXPLAIN QUERY PLAN`` output as indented text."""
        try:
            rows = self.connection.execute(
                f"EXPLAIN QUERY PLAN {sql}"
            ).fetchall()
        except sqlite3.Error as exc:
            raise OracleError(f"sqlite could not plan the query: {exc}") from exc
        # rows are (id, parent, notused, detail); indent by parent chain
        depth = {0: 0}
        lines = []
        for node_id, parent, _unused, detail in rows:
            level = depth.get(parent, 0) + 1
            depth[node_id] = level
            lines.append("  " * (level - 1) + detail)
        return "\n".join(lines)

    def close(self) -> None:
        self.connection.close()
