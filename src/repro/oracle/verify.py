"""Cross-checking our strategies against an external engine.

:func:`cross_check` is the library workhorse: load the database into the
engine once, run the dialect SQL once, then diff every requested
strategy's result against the external rows.  ``repro diff``, the
corpus replay test, the NULL-matrix test and ``PreparedQuery.verify``
are all thin wrappers over it.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from ..engine.catalog import Database
from ..errors import OracleDivergenceError
from ..sql.parser import parse
from .adapter import EngineAdapter, make_adapter
from .diff import OracleComparison, diff_bags
from .dialect import comparable
from .known import find_known


def cross_check(
    db: Database,
    sql: str,
    engine: str = "sqlite",
    strategies: Sequence[str] = ("auto",),
    backend: Optional[str] = None,
    adapter: Optional[EngineAdapter] = None,
    capture_plans: bool = False,
) -> List[OracleComparison]:
    """Run *sql* on every strategy and on *engine*; one report each.

    The external engine executes exactly once; its row bag is shared
    across the per-strategy diffs.  A mismatch that the known-divergence
    registry explains is recorded on the report (``known``) instead of
    failing it.  Pass an already-loaded *adapter* to reuse a connection.
    """
    import repro

    stmt = parse(sql)
    comparable(stmt)
    own = adapter is None
    if adapter is None:
        adapter = make_adapter(engine, db)
    try:
        external_rows, dialect_sql, elapsed_theirs = adapter.execute(stmt)
        plan_theirs = adapter.explain(dialect_sql) if capture_plans else None
        session = repro.connect(db)
        prepared = session.prepare(sql)
        reports: List[OracleComparison] = []
        for strategy in strategies:
            start = time.perf_counter()
            result = prepared.execute(strategy=strategy, backend=backend)
            elapsed_ours = time.perf_counter() - start
            diff = diff_bags(result.rows, external_rows)
            known = (
                find_known(sql, adapter.name, stmt)
                if diff is not None
                else None
            )
            reports.append(
                OracleComparison(
                    engine=adapter.name,
                    sql=sql,
                    dialect_sql=dialect_sql,
                    strategy=_label(strategy, backend),
                    ours_rows=len(result),
                    theirs_rows=len(external_rows),
                    diff=diff,
                    known=known,
                    elapsed_ours=elapsed_ours,
                    elapsed_theirs=elapsed_theirs,
                    plan_ours=None,
                    plan_theirs=plan_theirs,
                )
            )
        return reports
    finally:
        if own:
            adapter.close()


def _label(strategy, backend) -> str:
    label = strategy if isinstance(strategy, str) else type(strategy).__name__
    if backend:
        label += f"@{backend}"
    return label


def verify_or_raise(reports: Sequence[OracleComparison]) -> List[OracleComparison]:
    """Raise :class:`OracleDivergenceError` on the first *unexpected*
    divergence; return the reports otherwise."""
    for report in reports:
        if not report.acceptable:
            raise OracleDivergenceError(
                f"strategy {report.strategy!r} diverges from "
                f"{report.engine}: {report.diff.describe()}",
                comparison=report,
            )
    return list(reports)
