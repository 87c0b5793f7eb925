"""Deterministic cost counters.

Wall-clock numbers from a pure-Python engine on arbitrary hardware do not
reproduce a 2005 paper's absolute measurements; counter *shapes* do.  Every
physical operator charges its work to the ambient :class:`Metrics` object:
rows produced, rows scanned, hash-table builds/probes, index probes, sort
operations and comparison counts.  The benchmark harness reports both wall
time and these counters so that figure shapes (who wins, where the
crossover is) are machine-independent.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from .context import current, scope


#: weights for :meth:`Metrics.weighted_cost`: an index probe costs a
#: B-tree descent plus a random page read; a row fetched by rowid costs a
#: (frequently cache-missing) page touch; everything else is charged one
#: unit of sequential/in-memory work per row.
IO_WEIGHTS: Dict[str, int] = {
    "index_probes": 2000,
    "index_rows_fetched": 50,
}


@dataclass
class Metrics:
    """Mutable counter bundle shared by the operators of one execution."""

    counters: Dict[str, int] = field(default_factory=dict)

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self.counters.get(name, 0)

    def weighted_cost(self, weights: Optional[Dict[str, int]] = None) -> int:
        """Disk-era cost: counters weighted by their 2005-hardware price.

        The paper's experiments ran on a cold 1 GB database behind a
        32 MB buffer cache, where an index probe is a random I/O
        (~5 ms ≈ thousands of sequentially scanned rows) while scans,
        hash builds and in-memory predicate work are cheap per row.
        :data:`IO_WEIGHTS` encodes that ratio so figure *shapes* (who
        wins, how slopes grow) reproduce the paper even though this
        engine runs entirely in RAM, where random probes are nearly
        free.  All unlisted counters weigh 1.
        """
        weights = IO_WEIGHTS if weights is None else weights
        return sum(
            value * weights.get(name, 1) for name, value in self.counters.items()
        )

    def invariant_violations(
        self, result_cardinality: Optional[int] = None
    ) -> List[str]:
        """Sanity-check the counter bundle, returning violation messages.

        Every counter must be non-negative (operators only ever *add*
        work).  When *result_cardinality* is given it is checked against
        the ``rows_produced`` counter the planner charges once per
        finished execution — the fuzzer runs every strategy under a fresh
        :func:`collect` scope and uses this to catch strategies that
        drop or duplicate result rows relative to what they report.
        """
        violations = []
        for name, value in sorted(self.counters.items()):
            if value < 0:
                violations.append(f"counter {name!r} is negative ({value})")
        if result_cardinality is not None:
            produced = self.get("rows_produced")
            if produced != result_cardinality:
                violations.append(
                    f"rows_produced={produced} but the result has "
                    f"{result_cardinality} row(s)"
                )
        return violations

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def reset(self) -> None:
        self.counters.clear()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        return f"Metrics({inner})"


# The bundle charged when no :func:`collect` scope is active: it keeps
# simple call sites (tests, examples) clean while the harness installs a
# fresh Metrics per measured run.
_default = Metrics()


def current_metrics() -> Metrics:
    """The ambient metrics object operators charge to: the innermost
    :func:`collect` scope of this thread's execution context, else the
    process-wide default bundle."""
    return current().metrics or _default


@contextmanager
def collect() -> Iterator[Metrics]:
    """Run a block with a fresh ambient :class:`Metrics`, yielding it.

    >>> with collect() as m:
    ...     pass  # run operators
    >>> m.get("rows_out") >= 0
    True
    """
    with scope(metrics=Metrics()) as context:
        yield context.metrics
