"""Bag comparison of our results against an external engine's.

Both sides are normalized into *canonical rows* before diffing:

* NULL markers unify — our :data:`~repro.engine.types.NULL` singleton
  and the DB-API's ``None`` map to the same key;
* numerics unify — SQLite has no boolean storage class (booleans come
  back as integers) and ``1``/``1.0`` compare equal in SQL, so bools,
  ints and floats share one numeric key (exact IEEE value, so ``0.1``
  survives the round-trip unchanged);
* dates unify with their ISO-8601 text (SQLite stores our date values
  as TEXT).

The diff is over *bags*: duplicates count, order does not — exactly the
equality the internal differential oracle already uses.
"""

from __future__ import annotations

import datetime
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..engine.types import is_null


def canonical_value(value: object):
    """A hashable, engine-neutral comparison key for one SQL value."""
    if value is None or is_null(value):
        return ("null",)
    if isinstance(value, bool):
        return ("num", float(value))
    if isinstance(value, (int, float)):
        return ("num", float(value)) if float(value) == value else ("num", value)
    if isinstance(value, datetime.date):
        return ("str", value.isoformat())
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, bytes):
        return ("bytes", value)
    return ("repr", repr(value))


def canonical_row(row: Sequence[object]) -> Tuple:
    return tuple(canonical_value(v) for v in row)


def display_row(row: Sequence[object]) -> Tuple:
    """The row with ``None`` shown as ``NULL`` (for reports)."""
    from ..engine.types import NULL

    return tuple(NULL if v is None or is_null(v) else v for v in row)


@dataclass(frozen=True)
class RowDiff:
    """The first difference between two row bags, plus aggregate counts."""

    #: a representative differing row (display form)
    first_diff: Tuple
    #: multiplicity of that row on each side
    ours_multiplicity: int
    theirs_multiplicity: int
    #: total rows present in theirs but missing/short in ours, and vice versa
    missing: int
    extra: int

    def describe(self) -> str:
        return (
            f"first differing row {self.first_diff!r}: "
            f"ours x{self.ours_multiplicity}, "
            f"external x{self.theirs_multiplicity} "
            f"({self.missing} row(s) missing from ours, "
            f"{self.extra} extra)"
        )


def diff_bags(
    ours: Sequence[Sequence[object]], theirs: Sequence[Sequence[object]]
) -> Optional[RowDiff]:
    """Compare two row bags; ``None`` when they agree."""
    ours_counter: Counter = Counter()
    ours_display = {}
    for row in ours:
        key = canonical_row(row)
        ours_counter[key] += 1
        ours_display.setdefault(key, display_row(row))
    theirs_counter: Counter = Counter()
    theirs_display = {}
    for row in theirs:
        key = canonical_row(row)
        theirs_counter[key] += 1
        theirs_display.setdefault(key, display_row(row))
    if ours_counter == theirs_counter:
        return None
    missing = sum(
        max(0, n - ours_counter.get(key, 0))
        for key, n in theirs_counter.items()
    )
    extra = sum(
        max(0, n - theirs_counter.get(key, 0))
        for key, n in ours_counter.items()
    )
    differing = sorted(
        key
        for key in set(ours_counter) | set(theirs_counter)
        if ours_counter.get(key, 0) != theirs_counter.get(key, 0)
    )
    first = differing[0]
    return RowDiff(
        first_diff=ours_display.get(first, theirs_display.get(first)),
        ours_multiplicity=ours_counter.get(first, 0),
        theirs_multiplicity=theirs_counter.get(first, 0),
        missing=missing,
        extra=extra,
    )


@dataclass
class OracleComparison:
    """One cross-engine check: our strategy's rows vs an external engine's.

    ``ok`` means the bags agree; a disagreement may still be *expected*
    when it matches the known-divergence registry (``known`` is then the
    matching :class:`~repro.oracle.known.KnownDivergence` and the check
    counts as passed-with-caveat rather than failed).
    """

    engine: str
    sql: str
    dialect_sql: str
    strategy: str
    ours_rows: int
    theirs_rows: int
    diff: Optional[RowDiff] = None
    known: Optional[object] = None  # KnownDivergence
    elapsed_ours: float = 0.0
    elapsed_theirs: float = 0.0
    plan_ours: Optional[str] = None
    plan_theirs: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.diff is None

    @property
    def acceptable(self) -> bool:
        """Agreement, or a divergence the registry documents as expected."""
        return self.ok or self.known is not None

    def describe(self) -> str:
        lines = [
            f"strategy {self.strategy!r} vs {self.engine}: "
            + ("agree" if self.ok else "DIVERGE"),
            f"  rows: ours={self.ours_rows} {self.engine}={self.theirs_rows}",
            f"  sql:  {self.sql.strip()}",
        ]
        if self.dialect_sql.strip() != self.sql.strip():
            lines.append(f"  {self.engine} sql: {self.dialect_sql.strip()}")
        if self.diff is not None:
            lines.append(f"  {self.diff.describe()}")
        if self.known is not None:
            lines.append(
                f"  known divergence {self.known.key!r}: {self.known.reason}"
            )
        return "\n".join(lines)
