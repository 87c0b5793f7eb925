"""The public execution API: ``connect(db) -> Session -> PreparedQuery``.

Every way of running SQL through this library goes through one surface::

    import repro

    db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))
    session = repro.connect(db)
    query = session.prepare(repro.tpch.query1("1993-01-01", "1994-01-01"))

    result = query.execute()                              # auto strategy
    fast = query.execute(backend="vector")                # columnar engine
    oracle = query.execute(strategy="nested-iteration")
    plan = query.explain()
    annotated = query.explain(analyze=True)
    result, trace = query.trace()

The *strategy* name selects a member of the :mod:`repro.strategies`
registry, or ``"auto"``: Algorithm 1 on the columnar engine, or the
single-pass optimized preset when the request pins ``backend="row"``
(:func:`repro.core.optimizer.choose`) — ``query.explain()`` shows it,
and every trace's root span names it.  The *backend*
selects the execution substrate — ``"row"`` for the tuple-at-a-time
row engine, ``"vector"`` for the columnar batch engine — and
defaults to whatever the strategy was registered on.  Semantics never
depend on the backend; only performance does.

Every execution knob can also travel as one immutable
:class:`~repro.options.ExecutionOptions` bundle, layered as *session
defaults ← options= ← explicit keyword arguments* (non-``None`` fields
win at each step).  The layered bundle is resolved once, by
:func:`repro.core.optimizer.resolve` behind the session's memo, into the
decision that ``execute``, ``trace`` and ``explain`` all read: EXPLAIN
under options ``o`` describes exactly what ``execute`` under ``o`` runs.

The CLI, the server, the benchmark harness, the differential fuzzer and
the oracle's cross-checks all execute through this module:
:meth:`PreparedQuery._run` is the one caller of
:func:`repro.core.planner.run` and the one place outside the engine
that installs the execution context (governor, logic mode, caches).
"""

from __future__ import annotations

from typing import Optional, Union

from .core import planner
from .core.optimizer import PlannerDecision, resolve
from .core.plancache import SessionCache
from .engine.catalog import Database
from .engine.context import current, scope
from .engine.governor import ResourceGovernor, active_fault
from .engine.logic import validate_logic
from .engine.relation import Relation
from .engine.trace import op_span, tracing
from .errors import InvalidArgumentError
from .options import ExecutionOptions, layer_options


class PreparedQuery:
    """A compiled query bound to a session, ready to execute.

    Obtained from :meth:`Session.prepare`.  Preparation runs the parser
    and the semantic analyzer once; ``execute``/``explain``/``trace``
    may then be called any number of times with different strategies and
    backends.
    """

    def __init__(self, session: "Session", sql: str, query):
        self._session = session
        self.sql = sql
        #: the analyzed :class:`~repro.core.blocks.NestedQuery`
        self.query = query

    @property
    def session(self) -> "Session":
        return self._session

    def execute(
        self,
        strategy: Optional[Union[str, object]] = None,
        backend: Optional[str] = None,
        threads: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        spill_dir: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        governor: Optional[ResourceGovernor] = None,
    ) -> Relation:
        """Run the query and return the result :class:`Relation`.

        *strategy* is a registry name (see
        :func:`repro.strategies.names`), ``"auto"`` (the default:
        ``nested-relational-vectorized``, or
        ``nested-relational-optimized`` under ``backend="row"``), or a
        strategy instance; *backend* is ``"row"``, ``"vector"`` or
        ``None`` (follow the strategy's registration).  *threads* must
        be an integer >= 1 and changes nothing: execution is
        single-threaded.

        *timeout_ms* / *memory_limit_mb* bound the execution (typed
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.ResourceExhaustedError` on breach);
        *spill_dir* turns memory-budget breaches at the spillable
        operators into Grace-style disk spills instead of errors.

        Settings layer as *session defaults ← options= ← explicit
        keyword arguments*; every ``None`` inherits from the layer
        below.

        *governor* (advanced) supplies a pre-built
        :class:`~repro.engine.governor.ResourceGovernor` instead of
        letting the session construct one from the layered limits — a
        serving layer passes its own so it can cancel the execution
        from another thread and harvest its spill counters afterwards.
        """
        eff = self._options(
            strategy=strategy, backend=backend, threads=threads,
            timeout_ms=timeout_ms, memory_limit_mb=memory_limit_mb,
            spill_dir=spill_dir, options=options,
        )
        return self._run(eff, self._resolve(eff), governor)

    def _run(
        self,
        eff: ExecutionOptions,
        decision: PlannerDecision,
        governor: Optional[ResourceGovernor] = None,
    ) -> Relation:
        """Execute *decision* — what :meth:`_resolve` made of the
        layered options *eff* — under *eff*'s limits and logic mode.

        The one place the per-execution fields of the ambient
        :class:`~repro.engine.context.ExecutionContext` are installed:
        governor, logic mode, reduce cache, the decision's plan memo and
        the ``REPRO_FAULT`` mode (read here once, so an unknown mode
        raises before any operator runs), in a single scope that every
        operator of the execution sees.
        """
        if governor is None:
            governor = self._session.governor(eff)
        with scope(
            # ungoverned: an enclosing governed() scope keeps governing
            governor=governor or current().governor,
            logic=validate_logic(eff.logic),
            reduce_cache=self._session.reduce_cache(),
            plan_memo=decision.plan_memo,
            fault=active_fault(),
        ):
            return planner.run(self.query, self._session.db, decision)

    def trace(
        self,
        strategy: Optional[Union[str, object]] = None,
        backend: Optional[str] = None,
        threads: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        spill_dir: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
    ):
        """Run the query under a tracing scope.

        Returns ``(result, trace)`` where *trace* is the
        :class:`~repro.engine.trace.Trace` span tree of the execution.
        Options layer exactly as in :meth:`execute`; the root span names
        the strategy that ran, and a governed execution's trace carries
        a ``kind="governor"`` span recording the limits.
        """
        def request():
            eff = self._options(
                strategy=strategy, backend=backend, threads=threads,
                timeout_ms=timeout_ms, memory_limit_mb=memory_limit_mb,
                spill_dir=spill_dir, options=options,
            )
            return eff, self._resolve(eff)

        return self._traced(request)

    def _traced(self, request):
        """:meth:`_run` of the ``(eff, decision)`` pair *request()*
        returns, under a tracing scope; returns ``(result, trace)``.

        The root ``execute`` span opens first, through
        :func:`~repro.engine.trace.op_span` like every span, and closes
        last: layering the options, resolving them and building the
        governor are engine work of this execution too;
        :func:`repro.core.planner.run` records the strategy and the
        result cardinality on it."""
        with tracing() as trace, op_span(planner.ROOT_SPAN, kind="root"):
            eff, decision = request()
            result = self._run(eff, decision)
        return result, trace

    def _options(self, options=None, **kwargs) -> ExecutionOptions:
        """Layer *session defaults ← options= ← non-None kwargs*."""
        return layer_options(self._session.options, options, **kwargs)

    def _resolve(self, eff: ExecutionOptions) -> PlannerDecision:
        """What an execution under the layered options *eff* runs: the
        session's memo around :func:`repro.core.optimizer.resolve`,
        asked by ``execute``, ``trace`` and ``explain`` alike.

        A decision depends on the strategy and backend asked for alone,
        so a registry name or ``"auto"`` memoizes its resolved instance;
        a strategy instance, or a session with ``plan_cache=False``,
        resolves per call.
        """
        session, strategy = self._session, eff.strategy
        cache = session._cache
        cache.validate(session.db)
        key = None
        if isinstance(strategy, str) and cache.enabled:
            key = (self.sql, strategy, eff.backend, session.logic)
            decision = cache.strategy(key)
            if decision is not None:
                return decision
        decision = resolve(self.query, session.db, strategy, eff.backend)
        if key is not None:
            cache.store_strategy(key, decision)
        return decision

    def verify(
        self,
        engine: str = "sqlite",
        strategy: Optional[Union[str, object]] = None,
        backend: Optional[str] = None,
        threads: Optional[int] = None,
        raise_on_divergence: bool = True,
        capture_plans: bool = False,
        options: Optional[ExecutionOptions] = None,
    ):
        """Cross-check this query against an external engine.

        Loads the session's database into *engine* ("sqlite" always
        available; "duckdb" when installed; "internal" for the
        tuple-iteration evaluator), runs the dialect-rendered SQL there,
        executes *strategy* here, and diffs the row bags under canonical
        NULL handling.  Returns the
        :class:`~repro.oracle.diff.OracleComparison` report; with
        *raise_on_divergence* (the default) an unexpected mismatch —
        one the known-divergence registry does not explain — raises
        :class:`~repro.errors.OracleDivergenceError` instead.
        """
        from .oracle import cross_check, verify_or_raise

        eff = self._options(
            strategy=strategy, backend=backend, threads=threads,
            options=options,
        )
        reports = cross_check(
            self._session.db,
            self.sql,
            engine=engine,
            strategies=(eff.strategy,),
            backend=eff.backend,
            capture_plans=capture_plans,
        )
        if raise_on_divergence:
            verify_or_raise(reports)
        return reports[0]

    def explain(
        self,
        strategy: Optional[Union[str, object]] = None,
        analyze: bool = False,
        timings: bool = True,
        options: Optional[ExecutionOptions] = None,
    ):
        """The typed :class:`~repro.core.plan.Plan` for this query.

        EXPLAIN under options *o* describes exactly what ``execute``
        under *o* runs: both read the decision :meth:`_resolve` makes of
        the layered options.  With ``analyze=True`` that decision is then executed as :meth:`trace` would (logic,
        limits, this session's caches) and the annotated span tree is
        attached (wall times included unless ``timings=False``).

        Render with ``str(plan)`` / ``plan.render()`` (human-readable)
        or ``plan.render(format="json")`` (machine-readable).
        """
        from .core.plan import Plan
        from .engine.metrics import collect

        eff = self._options(strategy=strategy, options=options)
        decision = self._resolve(eff)
        plan = Plan.of(
            self.sql, eff.strategy, decision, self.query, self._session.db
        )
        if analyze:
            # the execution it reports: this decision, same session,
            # same layered options
            with collect() as metrics:
                result, trace = self._traced(lambda: (eff, decision))
            plan = plan.analyzed(result, trace, metrics, timings)
        return plan

    def describe(self) -> str:
        """The analyzed block structure (front-end view of the query),
        followed by the session's cache counters."""
        cache = self._session._cache
        state = "enabled" if cache.enabled else "compile-only"
        return (
            f"{self.query.describe()}\n\n"
            f"plan cache: {state} ({cache.stats.describe()})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        first = " ".join(self.sql.split())
        if len(first) > 60:
            first = first[:57] + "..."
        return f"PreparedQuery({first!r})"


class Session:
    """A connection-like handle binding queries to one database.

    *plan_cache* (default on) enables cross-query reuse: strategy
    resolutions and both backends' reduced-relation builds
    (``T_i = σ_Δi(R_i)``) are memoized across queries and invalidated
    when the catalog mutates.
    Re-preparing identical SQL skips the parser and analyzer regardless
    of the flag.  Defaults for every execution knob can be given either
    as individual keyword arguments or as one
    :class:`~repro.options.ExecutionOptions` bundle via *options*
    (explicit keyword arguments win field-by-field); *logic* selects
    3VL (default) or Libkin 2VL predicate semantics for every execution
    in the session.
    """

    def __init__(
        self,
        db: Database,
        plan_cache: bool = True,
        threads: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        spill_dir: Optional[str] = None,
        logic: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
        cache: Optional[SessionCache] = None,
    ):
        if not isinstance(db, Database):
            raise InvalidArgumentError(
                f"connect() expects a Database, got {type(db).__name__}"
            )
        self.db = db
        #: the session-wide defaults every execution layers on top of
        #: (the bottom layer names what an unset strategy and logic mean)
        self.options = layer_options(
            ExecutionOptions(strategy="auto", logic="3vl"), options,
            threads=threads, timeout_ms=timeout_ms,
            memory_limit_mb=memory_limit_mb, spill_dir=spill_dir,
            logic=logic,
        )
        self.logic = validate_logic(self.options.logic)
        # fail at connect() time, not first execute: bad session-wide
        # limits are rejected by the governor they would build
        self.governor()
        # *cache* lets a server pool many sessions over ONE (thread-safe)
        # SessionCache, so tenants share compiled plans and reduced
        # builds; a plain connect() keeps it private
        self._cache = (
            cache if cache is not None else SessionCache(enabled=plan_cache)
        )

    def governor(
        self, eff: Optional[ExecutionOptions] = None
    ) -> Optional[ResourceGovernor]:
        """A fresh per-execution governor for the layered options *eff*
        (default: the session's own), or None when ungoverned.

        A governor is built as soon as a limit is set.
        """
        if eff is None:
            eff = self.options
        if eff.timeout_ms is None and eff.memory_limit_mb is None:
            return None
        return ResourceGovernor(
            timeout_ms=eff.timeout_ms,
            memory_limit_mb=eff.memory_limit_mb,
            spill_dir=eff.spill_dir,
        )

    @property
    def cache_stats(self):
        """The session's :class:`~repro.core.plancache.CacheStats`."""
        return self._cache.stats

    def reduce_cache(self) -> Optional[SessionCache]:
        """The cache executions may store reduced builds in, if enabled."""
        return self._cache if self._cache.enabled else None

    def prepare(self, sql: str) -> PreparedQuery:
        """Parse and analyze *sql* into a reusable :class:`PreparedQuery`.

        Identical SQL text is compiled once per catalog version — the
        memo is always on, independent of ``plan_cache``.
        """
        from .sql import compile_sql

        if not isinstance(sql, str):
            raise InvalidArgumentError(
                f"prepare() expects SQL text, got {type(sql).__name__}"
            )
        self._cache.validate(self.db)
        query = self._cache.plan(sql)
        if query is None:
            query = compile_sql(sql, self.db)
            self._cache.store_plan(sql, query)
        return PreparedQuery(self, sql, query)

    def execute(
        self,
        sql: str,
        strategy: Optional[Union[str, object]] = None,
        backend: Optional[str] = None,
        threads: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        spill_dir: Optional[str] = None,
        options: Optional[ExecutionOptions] = None,
    ) -> Relation:
        """One-shot convenience: ``prepare(sql).execute(...)``."""
        return self.prepare(sql).execute(
            strategy=strategy,
            backend=backend,
            threads=threads,
            timeout_ms=timeout_ms,
            memory_limit_mb=memory_limit_mb,
            spill_dir=spill_dir,
            options=options,
        )

    def strategies(self) -> list:
        """Strategy names this session can execute (including ``"auto"``)."""
        from . import strategies

        return strategies.available_strategies()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.db.summary().splitlines()[0]!r})"


def connect(
    db: Database,
    plan_cache: bool = True,
    threads: Optional[int] = None,
    timeout_ms: Optional[float] = None,
    memory_limit_mb: Optional[float] = None,
    spill_dir: Optional[str] = None,
    logic: Optional[str] = None,
    options: Optional[ExecutionOptions] = None,
) -> Session:
    """Open a :class:`Session` over an in-memory :class:`Database`.

    ``plan_cache=False`` disables cross-query decision/strategy/build
    reuse (identical-SQL compilation is still memoized); *threads*, if
    given, must be an integer >= 1 and changes nothing (execution is
    single-threaded).  *timeout_ms* and *memory_limit_mb* set
    session-wide resource-governance defaults, overridable per
    ``execute``/``trace`` call; *spill_dir* lets budget breaches at the
    spillable operators spill to disk instead of raising.  ``logic`` selects the predicate
    semantics: ``"3vl"`` (SQL-standard Kleene logic, the default) or
    ``"2vl"`` (Libkin two-valued logic, where any comparison with NULL
    is plain FALSE) — the modes coincide exactly on NULL-free data.
    *options* supplies the same defaults as one
    :class:`~repro.options.ExecutionOptions` bundle; the explicit
    keyword arguments win field-by-field.
    """
    return Session(
        db,
        plan_cache=plan_cache,
        threads=threads,
        timeout_ms=timeout_ms,
        memory_limit_mb=memory_limit_mb,
        spill_dir=spill_dir,
        logic=logic,
        options=options,
    )
