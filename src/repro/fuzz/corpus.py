"""Freezing fuzz cases as self-contained pytest regressions.

A corpus file needs nothing but ``repro`` itself: it embeds the SQL
text, rebuilds the database from literal rows, and asserts that every
(applicable) strategy agrees with the nested-iteration oracle.  Checked
into ``tests/fuzz_corpus/``, these run under plain ``pytest`` with no
fuzzer involvement — the corpus is the fuzzer's long-term memory of
every bug it ever caught, plus a seeded set of representative cases.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional, Sequence

from ..core.optimizer import strategy_applicable
from ..engine.types import is_null
from ..errors import ReproError
from ..sql.analyzer import compile_sql
from ..strategies import make as make_strategy
from .runner import (
    ALWAYS_STRATEGIES,
    GUARDED_STRATEGIES,
    Failure,
    FuzzCase,
)

_TEMPLATE = '''"""{title}

{provenance}
Replay:  PYTHONPATH=src python -m repro fuzz --seed {seed} --iterations {replay_iterations}
"""

import repro
from repro.engine import NULL, Column, Database

SQL = (
{sql_literal}
)

STRATEGIES = [
{strategies}
]


def build_db():
    db = Database()
{tables}
    return db


LOGIC = "{logic}"


def test_all_strategies_agree_with_oracle():
    query = repro.connect(build_db(), logic=LOGIC).prepare(SQL)
    oracle = query.execute(strategy="nested-iteration").sorted()
    for strategy in STRATEGIES:
        result = query.execute(strategy=strategy).sorted()
        assert result == oracle, f"{{strategy}} disagrees with the oracle"
'''

_EXTERNAL_TEMPLATE = '''

def test_agrees_with_external_oracle():
    import pytest

    from repro.oracle import cross_check, engine_available

    engine = "{engine}"
    if not engine_available(engine):
        pytest.skip(f"{{engine}} not installed")
    db = build_db()
    for report in cross_check(db, SQL, engine=engine, strategies=STRATEGIES):
        assert report.acceptable, report.describe()
'''


def _pyvalue(value: object) -> str:
    if is_null(value):
        return "NULL"
    return repr(value)


def _sql_literal(sql: str, width: int = 68) -> str:
    """The SQL string as an implicitly concatenated literal block."""
    words = sql.split(" ")
    lines: list = []
    current = ""
    for word in words:
        if current and len(current) + 1 + len(word) > width:
            lines.append(current)
            current = word
        else:
            current = f"{current} {word}" if current else word
    if current:
        lines.append(current)
    out = []
    for i, line in enumerate(lines):
        trailing = " " if i < len(lines) - 1 else ""
        out.append(f'    "{line}{trailing}"')
    return "\n".join(out)


def applicable_strategies(case: FuzzCase) -> list:
    """Strategy names that accept this case (guarded ones filtered)."""
    db = case.db_spec.build()
    query = compile_sql(case.sql, db)
    names = list(ALWAYS_STRATEGIES)
    for name in GUARDED_STRATEGIES:
        if strategy_applicable(make_strategy(name), query, db):
            names.append(name)
    return names


def corpus_module_source(
    case: FuzzCase,
    failure: Optional[Failure] = None,
    title: Optional[str] = None,
    strategies: Optional[Sequence[str]] = None,
    oracle: Optional[str] = None,
    logic: str = "3vl",
) -> str:
    """Render *case* as the source of a self-contained pytest module.

    When *oracle* names an external engine ("sqlite"/"duckdb") the module
    gains a second test that replays the case through
    :func:`repro.oracle.cross_check` — skipped when the engine's package
    is missing, so a DuckDB-found divergence still runs everywhere.
    """
    if strategies is None:
        strategies = applicable_strategies(case)
    if title is None:
        title = "Fuzzer regression (minimized by repro.fuzz)."
    if failure is not None:
        provenance = (
            f"Origin: strategy {failure.strategy!r} {failure.kind} — "
            f"{failure.detail}\n"
            f"Found at seed={case.seed} iteration={case.iteration}, then "
            "minimized.\n"
        )
        if failure.trace_text:
            provenance += (
                "\nPer-operator traces at the minimized case:\n"
                + failure.trace_text + "\n"
            )
    else:
        provenance = (
            f"Deterministic generator output (seed={case.seed} "
            f"iteration={case.iteration}), checked in as a corpus seed.\n"
        )

    table_lines = []
    for table in case.db_spec.tables:
        rows = ",\n".join(
            "            (" + ", ".join(_pyvalue(v) for v in row) + ")"
            for row in table.rows
        )
        rows_block = f"[\n{rows},\n        ]" if table.rows else "[]"
        columns = ", ".join(
            f'Column("{c.name}", not_null=True)' if c.not_null
            else f'Column("{c.name}")'
            for c in table.columns()
        )
        table_lines.append(
            f'    db.create_table(\n'
            f'        "{table.name}",\n'
            f"        [{columns}],\n"
            f"        {rows_block},\n"
            f'        primary_key="k",\n'
            f"    )"
        )

    source = _TEMPLATE.format(
        title=title,
        provenance=provenance,
        seed=case.seed,
        replay_iterations=case.iteration + 1,
        sql_literal=_sql_literal(case.sql),
        strategies="\n".join(f'    "{name}",' for name in strategies),
        tables="\n".join(table_lines),
        logic=logic,
    )
    if oracle not in (None, "internal"):
        source += _EXTERNAL_TEMPLATE.format(engine=oracle)
    return source


def case_digest(case: FuzzCase) -> str:
    payload = case.sql + "|" + repr(
        [(t.name, t.rows) for t in case.db_spec.tables]
    )
    return hashlib.sha1(payload.encode()).hexdigest()[:10]


def write_corpus_file(
    case: FuzzCase,
    directory: str,
    failure: Optional[Failure] = None,
    name: Optional[str] = None,
    title: Optional[str] = None,
    strategies: Optional[Sequence[str]] = None,
    oracle: Optional[str] = None,
    logic: str = "3vl",
) -> str:
    """Write the regression module under *directory*; returns its path.

    The directory is created (with an ``__init__.py`` so pytest package
    collection keeps working) if it does not exist.
    """
    os.makedirs(directory, exist_ok=True)
    init_path = os.path.join(directory, "__init__.py")
    if not os.path.exists(init_path):
        with open(init_path, "w") as handle:
            handle.write('"""Checked-in fuzzer regressions (repro.fuzz)."""\n')
    if name is None:
        name = f"test_fuzz_{case_digest(case)}.py"
    if not name.startswith("test_"):
        raise ReproError(f"corpus file name {name!r} must start with 'test_'")
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(
            corpus_module_source(
                case,
                failure=failure,
                title=title,
                strategies=strategies,
                oracle=oracle,
                logic=logic,
            )
        )
    return path
