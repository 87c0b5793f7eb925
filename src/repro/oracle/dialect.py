"""The engine dialects and the oracle's comparability check.

Rendering itself lives in :mod:`repro.sql.unparse`: one renderer, three
dialects.  This module sets the two engine dialects' fields — quoted
identifiers, ``1`` / ``0`` booleans, ISO date strings, the CASE/EXISTS
rewrite of ``θ SOME|ALL`` and :class:`OracleUnsupportedError` — and
differs between them only in SQLite's truncating integer division.
"""

from __future__ import annotations

from ..errors import OracleUnsupportedError
from ..sql import ast as A
from ..sql.unparse import Dialect

SQLITE = Dialect(
    name="sqlite",
    quote_identifiers=True,
    booleans=("1", "0"),
    dates=True,
    integer_division=True,
    native_quantifiers=False,
    error=OracleUnsupportedError,
)
DUCKDB = Dialect(
    name="duckdb",
    quote_identifiers=True,
    booleans=("1", "0"),
    dates=True,
    integer_division=False,
    native_quantifiers=False,
    error=OracleUnsupportedError,
)

def comparable(stmt: A.SelectStmt) -> None:
    """Raise :class:`OracleUnsupportedError` if *stmt*'s results are not
    engine-independent.

    ``LIMIT`` without an ``ORDER BY`` that totally orders the output is
    the one construct in our subset whose *correct* results differ
    between engines (any N rows satisfy it), so a bag diff over it would
    report false divergences.
    """
    if stmt.limit is not None:
        raise OracleUnsupportedError(
            "LIMIT queries select an implementation-defined subset of "
            "rows unless ORDER BY totally orders the output; the oracle "
            "cannot diff them faithfully"
        )
