"""Cross-query caching for sessions.

A :class:`~repro.session.Session` answers many queries against one
database, and four pieces of work repeat across them:

* **parse → analyze** — :func:`repro.sql.compile_sql` of the identical
  SQL text yields the identical :class:`~repro.core.blocks.NestedQuery`
  (analysis only reads the catalog);
* **strategy resolution** — mapping a ``(strategy, backend)``
  request onto an executable instance inspects the query shape (the
  ``auto`` policy) but is otherwise pure;
* **Algorithm 1's plan** — each block's join plan and rid
  (:class:`~repro.core.reduce.ReduceStep`) and the annotated tree
  expression depend only on the query, the rules and the T_i column
  names, so a prepared query's warm execution need not redo them;
* **block reduction builds** — the reduced relations
  ``T_i = σ_Δi(R_i ⋈ …)`` of Algorithm 1's step one depend only on the
  block's syntactic :class:`~repro.core.reduce.BlockJoinPlan`, the base
  tables and the logic mode, not on which query asked.  Two queries
  sharing a block shape (the common case for dashboards re-issuing
  parameter-free subqueries) can share the build.

:class:`SessionCache` memoizes all four.  The compile memo is **always
on** — re-preparing identical SQL never re-runs the analyzer, even with
``connect(db, plan_cache=False)`` — while strategy, plan and reduce
caching follow the ``plan_cache`` flag.

**The plan memo rides on the strategy memo.**  Every
:class:`~repro.core.optimizer.PlannerDecision` carries a
:class:`PlanMemo`, which the session installs as the execution
context's ``plan_memo``; Algorithm 1 stores what it planned there on
the first execution and reads it on every later one.  Its key is
therefore the strategy memo's, ``(sql, strategy, backend, session
logic)``, and it is memoized exactly when the decision is: a strategy
instance or ``plan_cache=False`` resolves a fresh decision per call,
and so plans per call.  Its staleness rule is the one below — the flush
that drops the decision drops its plan.  Within the slot, an entry answers only the strategy
instance and the analyzed query it was planned for.

**One staleness rule.**  Every entry is valid for exactly one
``(Database object, Database.version)`` pair, the one the last
:meth:`SessionCache.validate` named.  Validating against another
database object, or the same one at another version (CREATE/DROP TABLE,
index creation, :meth:`~repro.engine.catalog.Database.mutate_table`),
flushes every memo.  Base-table rows change only through
``mutate_table``, so nothing else can make an entry stale.  The cache
holds the database by weakref, so a collected database's successor at
the same address is still another database.

**The reduce memo is backend-neutral.**  It reaches an execution as the
``reduce_cache`` field of the ambient
:class:`~repro.engine.context.ExecutionContext`, installed by the
session around each execution, and both Algorithm 1 backends consult it
through the one :class:`ReduceMemo` below: the key is ``(repr(plan),
backend kind, logic mode, rid)``, so a row image
(:class:`~repro.engine.relation.Relation`) and a vector image (a batch)
of the same plan never collide, and a 2VL build never answers a 3VL
execution.  Whoever installs the cache validates it against the
database the execution reads first.

*Inside* a cached image: the block's scans, local filters and joins —
the plain relation ``σ_Δi(R_i ⋈ …)`` — and the synthetic ``_rid``
column: on both backends a hit is T_i, ready to use, and the rid in
its key keeps two blocks over one join plan apart.  The equi-join
builds made on an image are kept on it and evicted with it.  *Outside*
it, redone per execution: the GROUP BY / HAVING aggregation (and then
the rid) of a grouped subquery block, whose image is the plain join
(key rid ``None``).  The row backend does not memoize a block that is
one unfiltered table — that "build" is the base relation under an
alias.  An image outlives the execution that built it and is handed to
every later one (and, under ``repro serve``, to every tenant):
operators treat their inputs as read-only, and a hit is not charged to
the executing tenant's memory budget.

Only the nested relational backends read the memo.
:func:`repro.core.reduce.reduce_all` takes no memo, so
``nested-iteration`` (the fuzzer's ground truth), ``native`` and the
other baselines always reduce from the base tables — a wrong cached
image cannot agree with the reference it is checked against.

**Bounds.**  Each memo table keeps at most ``_MAX_ENTRIES`` entries; the
reduce memo additionally keeps at most ``_MAX_REDUCED_CELLS`` cells
(rows × columns) in total, FIFO, because one shared cache serves every
tenant's ad-hoc constants and a reduced relation is not small.

**Thread safety.**  Under :mod:`repro.serve` each worker *process*
owns one cache, shared by the sessions of every tenant it serves (so
they share compiled plans and reduced builds), and ``/stats`` sums the
workers' counters; no cache crosses a process.  The lock serves the
threads that can still meet in one cache: an embedder's own thread
pool over one :class:`~repro.session.Session` (or one cache handed to
several).  All memo lookups/stores, the validation and the
hit/miss/eviction counters are therefore serialized under one lock:
without it, concurrent ``prepare()``
calls lose counter increments (``+=`` is a read-modify-write), two
threads can FIFO-evict the same oldest key (``KeyError``), and a store
racing ``validate()`` can resurrect an entry built against a dropped
catalog version.  The lock is never held while compiling or executing —
only around dict/counter touches — so it serializes bookkeeping, not
work.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..engine.context import current as current_context

if TYPE_CHECKING:
    from ..engine.catalog import Database

#: entries kept per memo table; insertion beyond this evicts the oldest
#: entries of *that table only* (FIFO) — sessions are not long-lived
#: enough to justify an LRU, but a full plan memo must not nuke the
#: reduce memo (and vice versa) the way wholesale clearing used to
_MAX_ENTRIES = 256

#: cells (rows × columns) the reduce memo retains in total; storing
#: beyond this evicts its oldest images, and an image that alone exceeds
#: it is not stored at all
_MAX_REDUCED_CELLS = 8_000_000


@dataclass
class CacheStats:
    """Hit/miss counters for one session's caches."""

    plan_hits: int = 0
    plan_misses: int = 0
    strategy_hits: int = 0
    strategy_misses: int = 0
    reduce_hits: int = 0
    reduce_misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    def describe(self) -> str:
        return (
            f"plan hits={self.plan_hits} misses={self.plan_misses}, "
            f"strategy hits={self.strategy_hits} "
            f"misses={self.strategy_misses}, "
            f"reduce hits={self.reduce_hits} misses={self.reduce_misses}, "
            f"invalidations={self.invalidations}, "
            f"evictions={self.evictions}"
        )

    def snapshot(self) -> Dict[str, int]:
        return {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "strategy_hits": self.strategy_hits,
            "strategy_misses": self.strategy_misses,
            "reduce_hits": self.reduce_hits,
            "reduce_misses": self.reduce_misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }


class SessionCache:
    """Compile/strategy/reduce memo tables valid for one database at
    one version; see the module docstring for what is cached when."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.stats = CacheStats()
        # serializes every memo/counter touch; an embedder's threads may
        # meet here (see module docstring)
        self._lock = threading.Lock()
        self._db: Optional[weakref.ref] = None
        self._version: Optional[int] = None
        self._plans: Dict[str, Any] = {}
        self._strategies: Dict[Tuple, Any] = {}
        # key (see ReduceMemo) -> (image, cells)
        self._reduced: Dict[Tuple, Tuple[Any, int]] = {}
        self._reduced_cells = 0

    # ------------------------------------------------------------------ #

    def validate(self, db: "Database") -> None:
        """Drop everything unless the last use was against this very
        database object at its current version."""
        with self._lock:
            if self._db is not None:
                if self._db() is db and self._version == db.version:
                    return
                if self._plans or self._strategies or self._reduced:
                    self.stats.invalidations += 1
                self._plans.clear()
                self._strategies.clear()
                self._reduced.clear()
                self._reduced_cells = 0
            self._db = weakref.ref(db)
            self._version = db.version

    def stats_snapshot(self) -> Dict[str, int]:
        """A consistent copy of the counters (taken under the lock)."""
        with self._lock:
            return self.stats.snapshot()

    def _bound(self, table: Dict) -> None:
        """Make room for one insertion: FIFO-evict the oldest entries of
        *this* memo table only (dicts preserve insertion order; caller
        holds the lock).

        Counters stay monotonic: each evicted entry increments
        ``stats.evictions`` and nothing is ever reset — so a long
        session's hit/miss/eviction totals always add up across
        evictions.
        """
        while len(table) >= _MAX_ENTRIES:
            oldest = next(iter(table))
            del table[oldest]
            self.stats.evictions += 1

    # -- parse → analyze (always on) ----------------------------------- #

    def plan(self, sql: str) -> Optional[Any]:
        with self._lock:
            query = self._plans.get(sql)
            if query is None:
                self.stats.plan_misses += 1
            else:
                self.stats.plan_hits += 1
            return query

    def store_plan(self, sql: str, query: Any) -> None:
        with self._lock:
            self._bound(self._plans)
            self._plans[sql] = query

    # -- strategy resolution (plan_cache only) -------------------------- #

    def strategy(self, key: Tuple) -> Optional[Any]:
        if not self.enabled:
            return None
        with self._lock:
            impl = self._strategies.get(key)
            if impl is None:
                self.stats.strategy_misses += 1
            else:
                self.stats.strategy_hits += 1
            return impl

    def store_strategy(self, key: Tuple, impl: Any) -> None:
        if self.enabled:
            with self._lock:
                self._bound(self._strategies)
                self._strategies[key] = impl

    # -- reduced-relation builds (plan_cache only) ---------------------- #

    def reduced(self, key: Tuple) -> Optional[Any]:
        with self._lock:
            entry = self._reduced.get(key)
            if entry is None:
                self.stats.reduce_misses += 1
                return None
            self.stats.reduce_hits += 1
            return entry[0]

    def store_reduced(self, key: Tuple, image: Any, cells: int) -> None:
        """Keep *image* (*cells* = rows × columns), evicting the oldest
        images until both bounds hold again."""
        if cells > _MAX_REDUCED_CELLS:
            return
        with self._lock:
            # two executions may miss on one key and both build it
            replaced = self._reduced.pop(key, None)
            if replaced is not None:
                self._reduced_cells -= replaced[1]
            while self._reduced and (
                len(self._reduced) >= _MAX_ENTRIES
                or self._reduced_cells + cells > _MAX_REDUCED_CELLS
            ):
                oldest = next(iter(self._reduced))
                self._reduced_cells -= self._reduced.pop(oldest)[1]
                self.stats.evictions += 1
            self._reduced[key] = (image, cells)
            self._reduced_cells += cells


class PlanMemo:
    """What Algorithm 1 planned for one strategy decision: the slot a
    :class:`~repro.core.optimizer.PlannerDecision` carries, so it is
    memoized exactly when the decision is (see the module docstring).

    It holds one entry, for the strategy instance and the analyzed query
    it was planned for; a lookup for any other pair misses.
    """

    __slots__ = ("_entry",)

    def __init__(self) -> None:
        self._entry: Optional[Tuple[Any, Any, Any]] = None

    def get(self, strategy: Any, query: Any) -> Optional[Any]:
        entry = self._entry
        if entry is not None and entry[0] is strategy and entry[1] is query:
            return entry[2]
        return None

    def put(self, strategy: Any, query: Any, planned: Any) -> None:
        # one tuple swap: a racing execution reads the old entry or this
        self._entry = (strategy, query, planned)


class ReduceMemo:
    """One block's slot in the ambient reduce memo.

    Looks *plan*'s image up on construction (counting the hit or miss);
    :attr:`state` is ``"hit"``, ``"miss"``, or ``"off"`` when the
    execution carries no reduce cache.  :meth:`image` then returns the
    cached image or builds and stores it.  The logic mode participates
    in the key: a NOT over a NULL comparison filters differently under
    2VL.  So does *rid*, the rid column an image carries (None for a
    plain join image): two blocks over one join plan never share a T_i.
    The database does not: the cache holds one database's state.
    """

    __slots__ = ("_cache", "_key", "_cached", "state")

    def __init__(self, plan: Any, kind: str, rid: Optional[str] = None):
        context = current_context()
        self._cache = context.reduce_cache
        self._key = self._cached = None
        if self._cache is None:
            self.state = "off"
            return
        self._key = (plan.key, kind, context.logic, rid)
        self._cached = self._cache.reduced(self._key)
        self.state = "miss" if self._cached is None else "hit"

    def image(self, build: Callable[[], Any]) -> Any:
        if self._cached is not None:
            return self._cached
        image = build()
        if self._cache is not None:
            self._cache.store_reduced(
                self._key, image, len(image) * len(image.schema)
            )
        return image
