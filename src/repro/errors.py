"""Exception hierarchy for the ``repro`` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch a single base class.  The hierarchy mirrors the layers of
the system: engine (physical evaluation), SQL front-end, and the nested
relational core.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed or an attribute reference cannot be resolved."""


class TypeError_(ReproError):
    """A value has a type that an operator or expression cannot handle.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class ExpressionError(ReproError):
    """An expression is malformed or evaluated over an incompatible row."""


class ParseError(ReproError):
    """The SQL parser rejected the input text."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class AnalysisError(ReproError):
    """Semantic analysis of a parsed query failed (unknown table/column,
    ambiguous reference, unsupported construct, ...)."""


class PlanError(ReproError):
    """A strategy cannot produce a plan for the given query shape."""


class UnsoundRewriteError(PlanError):
    """A classical rewrite (e.g. ALL -> antijoin) was requested in a context
    where it would not preserve SQL semantics (NULLable linked attribute).

    The paper's Section 2 motivates the nested relational approach precisely
    with this failure mode; the baseline strategies raise this error instead
    of silently producing wrong answers.
    """


class InvalidArgumentError(ReproError, ValueError):
    """A public API was called with an argument outside its domain
    (bad strategy/backend name, out-of-range fuzzer setting, ...).

    Also a :class:`ValueError` so pre-existing callers that caught the
    bare builtin keep working across the typed-error migration.
    """


class CatalogError(ReproError):
    """A table or index name is unknown or already defined."""


class ExecutionError(ReproError):
    """A physical operator failed at run time."""


class SpillError(ExecutionError):
    """A spill-to-disk pass failed (temp-file write error, unusable spill
    directory, or the ``REPRO_FAULT=spill_io`` injected write failure).

    Subclasses :class:`ExecutionError` — *not*
    :class:`ResourceGovernanceError` — because a failed spill is an
    environmental fault, not a governance verdict.
    """


class ResourceGovernanceError(ExecutionError):
    """Base class for errors raised by the per-execution
    :class:`~repro.engine.governor.ResourceGovernor` (deadline, memory
    budget, cooperative cancellation).
    """


class QueryTimeoutError(ResourceGovernanceError):
    """The execution ran past its ``timeout_ms`` deadline.

    Raised cooperatively at operator boundaries, so the overshoot is
    bounded by the longest uninterruptible operator step.
    """


class ResourceExhaustedError(ResourceGovernanceError):
    """The execution's accounted allocations exceeded ``memory_limit_mb``.

    Fed by the accounting hooks in hash-join builds, nest grouping and
    batch materialization; the estimate is approximate but monotone.
    """


class QueryCancelledError(ResourceGovernanceError):
    """The execution's cancellation token was triggered
    (:meth:`~repro.engine.governor.ResourceGovernor.cancel`)."""


class ServeError(ReproError):
    """Base class for errors raised by the query server
    (:mod:`repro.serve`): admission control, tenant quotas, and
    lifecycle.  Execution-side failures keep their own types — the
    server maps every :class:`ReproError` subtype onto an HTTP status,
    it never re-wraps them.
    """


class ServerOverloadedError(ServeError):
    """The server's global admission queue is full (HTTP 429).

    Raised *before* any work is queued: the request was never admitted,
    so retrying after a backoff is always safe.
    """


class TenantQuotaExceededError(ServeError):
    """One tenant exceeded its own admission quota (HTTP 429).

    Per-tenant queues are bounded separately from the global queue so a
    single flooding tenant is rejected with this error while other
    tenants' requests continue to be admitted and served fairly.
    """


class ServerDrainingError(ServeError):
    """The server is draining (SIGTERM received; HTTP 503).

    In-flight queries run to completion; new submissions are rejected
    with this error so load balancers fail over promptly.
    """


class OracleError(ReproError):
    """Base class for errors raised by the external differential oracle
    (:mod:`repro.oracle`): adapter setup, dialect translation, and
    cross-engine result comparison."""


class OracleUnavailableError(OracleError):
    """The requested external engine cannot be used — its package is not
    installed (DuckDB) or the adapter name is unknown.  Callers that
    treat the external oracle as optional catch this and skip."""


class OracleUnsupportedError(OracleError):
    """The query uses a construct the oracle cannot compare faithfully
    (e.g. ``LIMIT`` without a total ``ORDER BY``, whose row choice is
    implementation-defined), or a construct the dialect renderer cannot
    translate for the target engine."""


class OracleDivergenceError(OracleError):
    """An external engine disagreed with one of our strategies on the
    same SQL over the same data.

    Carries the full :class:`repro.oracle.diff.OracleComparison` report
    as :attr:`comparison` — first differing row, per-side counts, the
    strategy/backend that produced our rows, and the dialect SQL the
    external engine actually ran.
    """

    def __init__(self, message: str, comparison=None):
        super().__init__(message)
        #: the :class:`repro.oracle.diff.OracleComparison` behind this error
        self.comparison = comparison
