"""The differential oracle: every strategy vs. tuple-iteration semantics.

For each generated (query, database) pair the runner executes every
registered strategy and compares its result — as a bag, order-ignored —
against the ``nested-iteration`` oracle, which implements SQL semantics
by direct per-tuple evaluation.  Strategies with applicability guards
(bottom-up linear evaluation, the positive rewrite, the classical
unnesting and aggregate-rewrite baselines) are checked only on the
queries they accept.

Every execution goes through a :class:`~repro.session.Session`'s
:class:`~repro.session.PreparedQuery`, the path a user's query takes:
one session per case, over the case's database and the runner's logic
mode.  Each execution also runs under a fresh metrics scope and is
checked against the engine's counter invariants (non-negative counters,
``rows_produced`` = result cardinality) so a strategy that silently
miscounts work is flagged even when its rows are right.  Executions
additionally run under a tracing scope (``check_traces``): the span
tree's structural invariants — cardinality contracts, pull-model row
accounting, Metrics reconciliation — must hold on every random query,
so an operator that miscounts its rows is caught even when the result
values match the oracle.

The runner reports the *first* failing (case, strategy) pair; the
shrinker then minimizes it and the corpus writer freezes it as a
self-contained pytest regression under ``tests/fuzz_corpus/`` — with
the per-operator traces of the oracle and the failing strategy attached
to the frozen failure's provenance.
"""

from __future__ import annotations

import copy
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.blocks import NestedQuery
from ..core.optimizer import AUTO_RULE, resolve, strategy_applicable
from ..core.plancache import SessionCache
from ..engine.catalog import Database
from ..engine.governor import active_fault
from ..engine.logic import validate_logic
from ..engine.metrics import collect
from ..engine.trace import (
    Trace,
    reconcile_with_metrics,
    render_trace,
    trace_invariant_violations,
    tracing,
)
from ..engine.relation import Relation
from ..engine.types import negate_op
from ..errors import ReproError, ResourceExhaustedError, SpillError
from ..session import PreparedQuery, Session
from ..sql import ast as A
from ..sql.unparse import render_sql
from ..strategies import make as make_strategy
from .datagen import DatabaseSpec, random_database_spec
from .generator import FuzzConfig, QueryGenerator, case_rng

#: The correctness oracle every strategy is compared against.
ORACLE = "nested-iteration"

#: Strategies that accept every query in the generator's subset.
ALWAYS_STRATEGIES = (
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-vectorized",
    "nested-relational-optimized",
    "system-a-native",
    "auto",
)

#: Strategies with an ``applicable`` guard, checked only when they apply.
GUARDED_STRATEGIES = (
    "nested-relational-bottomup",
    "nested-relational-positive-rewrite",
    "classical-unnesting",
    "count-rewrite",
    "boolean-aggregate",
    "aggregate-rewrite",
)

DEFAULT_STRATEGIES = ALWAYS_STRATEGIES + GUARDED_STRATEGIES


@dataclass(frozen=True)
class FuzzCase:
    """One generated (query, database) pair plus its provenance."""

    stmt: A.SelectStmt
    db_spec: DatabaseSpec
    seed: int = 0
    iteration: int = 0

    @property
    def sql(self) -> str:
        return render_sql(self.stmt)

    def describe(self) -> str:
        return f"seed={self.seed} iteration={self.iteration}\n  {self.sql}\n  {self.db_spec.describe()}"


@dataclass
class Failure:
    """A strategy disagreeing with the oracle (or crashing, or breaking a
    metrics or trace invariant, or diverging from an external engine) on
    one case."""

    case: FuzzCase
    strategy: str
    # "disagreement" | "error" | "metrics" | "trace" | "planner"
    # | "compile-error" | "external-divergence" | "external-error"
    kind: str
    detail: str
    expected: Optional[Relation] = None
    actual: Optional[Relation] = None
    #: rendered per-operator traces of the oracle and the failing
    #: strategy (timings off), attached before a corpus file is frozen
    trace_text: Optional[str] = None

    def describe(self) -> str:
        lines = [
            f"strategy {self.strategy!r}: {self.kind}",
            f"  {self.detail}",
            f"  case: {self.case.describe()}",
        ]
        if self.expected is not None:
            lines.append(f"  oracle rows:   {sorted_rows(self.expected)}")
        if self.actual is not None:
            lines.append(f"  strategy rows: {sorted_rows(self.actual)}")
        if self.trace_text:
            lines.append("  " + self.trace_text.replace("\n", "\n  "))
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of a whole fuzzing run."""

    iterations: int = 0
    cases_run: int = 0
    strategy_checks: int = 0
    skipped_inapplicable: int = 0
    #: cross-engine comparisons run (``--oracle=sqlite|duckdb``)
    external_checks: int = 0
    #: external disagreements matched by the known-divergence registry
    known_divergences: int = 0
    failures: List[Failure] = field(default_factory=list)
    elapsed: float = 0.0
    operator_histogram: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"{len(self.failures)} failure(s)"
        ops = " ".join(
            f"{op}={n}" for op, n in sorted(self.operator_histogram.items())
        )
        external = ""
        if self.external_checks:
            external = (
                f", {self.external_checks} external oracle check(s)"
                + (
                    f" ({self.known_divergences} known divergence(s))"
                    if self.known_divergences
                    else ""
                )
            )
        return (
            f"{verdict}: {self.cases_run} case(s), "
            f"{self.strategy_checks} strategy check(s), "
            f"{self.skipped_inapplicable} inapplicable skip(s)"
            f"{external} "
            f"in {self.elapsed:.1f}s\n  linking operators seen: {ops}"
        )


def sorted_rows(relation: Relation) -> List[tuple]:
    return relation.sorted().rows


def _name(strategy: object) -> str:
    """A registry name, or an injected instance's ``name``."""
    return strategy if isinstance(strategy, str) else strategy.name


def _planner_violations(trace: Trace) -> List[str]:
    """An ``"auto"`` execution runs the rule's strategy: its traced root
    span names what :data:`~repro.core.optimizer.AUTO_RULE` answers for
    the default backend (the runner never pins one)."""
    expected = AUTO_RULE[None]
    executed = [
        root.attrs.get("strategy") for root in trace.roots
        if root.kind == "root"
    ]
    if executed != [expected]:
        return [f"auto executed {executed} but the rule names {expected!r}"]
    return []


class DifferentialRunner:
    """Executes strategies against the oracle, case by case."""

    def __init__(
        self,
        strategies: Optional[Sequence[str]] = None,
        extra_strategies: Sequence[object] = (),
        check_metrics: bool = True,
        check_traces: bool = True,
        oracle: Optional[str] = None,
        logic: str = "3vl",
        memory_limit_mb: Optional[float] = None,
        spill_dir: Optional[str] = None,
    ):
        self.strategies = tuple(strategies or DEFAULT_STRATEGIES)
        #: predicate semantics every internal execution runs under.
        #: External engines always evaluate standard 3VL, so under
        #: ``logic="2vl"`` the external cross-check grounds a separately
        #: computed 3VL oracle result instead of the 2VL one.
        self.logic = validate_logic(logic)
        #: objects with ``name`` and ``execute(query, db)``, run as
        #: strategy instances — used to inject deliberately broken
        #: strategies for self-tests.
        self.extra_strategies = tuple(extra_strategies)
        self.check_metrics = check_metrics
        #: run every execution under a tracing scope and enforce the
        #: span-tree invariants (contracts, root cardinality, Metrics
        #: reconciliation) on top of the differential check.
        self.check_traces = check_traces
        #: external engine to cross-check the internal oracle against
        #: ("sqlite" / "duckdb"); None or "internal" keeps the classic
        #: strategies-vs-nested-iteration mode only.
        self.oracle = None if oracle in (None, "internal") else oracle
        #: tiny-memory-budget mode: every *checked* strategy runs under a
        #: spilling governor with this budget, exercising the Grace
        #: partitioning paths on random queries while the ungoverned
        #: oracle stays the ground truth.  A strategy whose non-spillable
        #: sites legitimately exhaust the budget is skipped, not failed.
        self.memory_limit_mb = memory_limit_mb
        self.spill_dir = spill_dir
        #: the cache every case's sessions share, validated against each
        #: case's database: the second and later nested relational
        #: executions of a case are handed the T_i an earlier one built,
        #: and the oracle (which reduces from the base tables) judges
        #: them.  Off under a budget: a memo hit would skip the table
        #: materialization charge and move which ops spill.
        self.reduce_cache = SessionCache(enabled=memory_limit_mb is None)
        self.last_report: Optional[FuzzReport] = None

    def _ensure_spill_dir(self) -> str:
        if self.spill_dir is None:
            self.spill_dir = tempfile.mkdtemp(prefix="repro-fuzz-spill-")
        return self.spill_dir

    # ------------------------------------------------------------------ #
    # one case
    # ------------------------------------------------------------------ #

    def _session(self, db: Database, logic: Optional[str] = None) -> Session:
        """A session over *db* under *logic* (default: the runner's),
        sharing the runner's cache."""
        return Session(db, logic=logic or self.logic, cache=self.reduce_cache)

    def check_case(
        self, case: FuzzCase, report: Optional[FuzzReport] = None
    ) -> Optional[Failure]:
        """Run every strategy on *case*; the first failure, or None.

        The query is prepared from its rendered SQL text — the exact
        artifact a corpus file replays — so unparser or parser drift
        surfaces here rather than in a checked-in regression.  The whole
        case runs in one session under the runner's logic mode.
        """
        db = case.db_spec.build()
        try:
            prepared = self._session(db).prepare(case.sql)
        except ReproError as exc:
            return Failure(
                case, "<compile>", "compile-error",
                f"generated SQL failed to compile: {exc}",
            )

        oracle_failure, expected = self._run_one(case, prepared, ORACLE)
        if oracle_failure is not None:
            return oracle_failure
        assert expected is not None

        if self.oracle is not None:
            grounded = expected
            if self.logic != "3vl":
                # external engines are 3VL: ground their comparison in a
                # 3VL oracle run, keeping the 2VL differential leg intact
                failure, grounded = self._run_one(
                    case, self._session(db, "3vl").prepare(case.sql), ORACLE
                )
                if failure is not None:
                    return failure
                assert grounded is not None
            failure = self._check_external(case, db, grounded, report)
            if failure is not None:
                return failure

        for name in self.strategies:
            if name in GUARDED_STRATEGIES and not strategy_applicable(
                make_strategy(name), prepared.query, db
            ):
                if report is not None:
                    report.skipped_inapplicable += 1
                continue
            failure = self._check_one(case, prepared, name, expected, report)
            if failure is not None:
                return failure

        for impl in self.extra_strategies:
            failure = self._check_one(case, prepared, impl, expected, report)
            if failure is not None:
                return failure
        return None

    def _check_one(
        self,
        case: FuzzCase,
        prepared: PreparedQuery,
        strategy: object,
        expected: Relation,
        report: Optional[FuzzReport],
    ) -> Optional[Failure]:
        failure, result = self._run_one(case, prepared, strategy)
        if failure is not None:
            return failure
        if result is None:  # accepted budget outcome: nothing to compare
            if report is not None:
                report.skipped_inapplicable += 1
            return None
        if report is not None:
            report.strategy_checks += 1
        if result != expected:
            return Failure(
                case, _name(strategy), "disagreement",
                f"{len(result)} row(s) vs oracle's {len(expected)}",
                expected=expected, actual=result,
            )
        return None

    def _check_external(
        self,
        case: FuzzCase,
        db: Database,
        expected: Relation,
        report: Optional[FuzzReport],
    ) -> Optional[Failure]:
        """Cross-check the internal oracle's rows against ``self.oracle``.

        The internal strategies are differentially checked against
        ``nested-iteration`` below, so grounding *that one* result in a
        real engine transitively grounds every strategy that matches it.
        A divergence the known-divergence registry explains is counted
        and skipped; anything else becomes an ``external-divergence``
        failure that shrinks into the corpus like any other.
        """
        from ..oracle.adapter import make_adapter
        from ..oracle.diff import diff_bags
        from ..oracle.dialect import comparable
        from ..oracle.known import find_known
        from ..errors import OracleError, OracleUnsupportedError

        label = f"oracle:{self.oracle}"
        try:
            comparable(case.stmt)
        except OracleUnsupportedError:
            if report is not None:
                report.skipped_inapplicable += 1
            return None
        try:
            with make_adapter(self.oracle, db) as adapter:
                rows, dialect_sql, _ = adapter.execute(case.stmt)
        except OracleError as exc:
            return Failure(
                case, label, "external-error",
                f"{self.oracle} rejected the dialect SQL: {exc}",
            )
        if report is not None:
            report.external_checks += 1
        diff = diff_bags(expected.rows, rows)
        if diff is None:
            return None
        known = find_known(case.sql, self.oracle, case.stmt)
        if known is not None:
            if report is not None:
                report.known_divergences += 1
            return None
        return Failure(
            case, label, "external-divergence",
            f"{diff.describe()}\n  dialect SQL: {dialect_sql}",
            expected=expected,
        )

    def _run_one(
        self, case: FuzzCase, prepared: PreparedQuery, strategy: object
    ) -> Tuple[Optional[Failure], Optional[Relation]]:
        """Execute one strategy — a registry name or an injected
        instance — under fresh metrics and tracing scopes."""
        name = _name(strategy)
        traced = tracing() if self.check_traces else nullcontext()
        try:
            with collect() as metrics, traced as trace:
                result = prepared.execute(
                    strategy=strategy, **self._limits(name)
                )
        except ReproError as exc:
            if self._budget_skip(exc, name):
                return None, None
            return (
                Failure(case, name, "error", f"raised {type(exc).__name__}: {exc}"),
                None,
            )
        if self.check_metrics:
            violations = metrics.invariant_violations(
                result_cardinality=len(result)
            )
            if violations:
                return (
                    Failure(case, name, "metrics", "; ".join(violations)),
                    None,
                )
        if trace is not None:
            violations = trace_invariant_violations(
                trace, result_cardinality=len(result)
            )
            violations.extend(
                reconcile_with_metrics(trace, metrics.snapshot())
            )
            if violations:
                return (
                    Failure(case, name, "trace", "; ".join(violations[:8])),
                    None,
                )
            if name == "auto":
                violations = _planner_violations(trace)
                if violations:
                    return (
                        Failure(case, name, "planner", "; ".join(violations)),
                        None,
                    )
        return None, result

    def _limits(self, name: str) -> Dict[str, object]:
        """The budget *name* runs under: none for the oracle, whose
        ground truth must always complete."""
        if self.memory_limit_mb is None or name == ORACLE:
            return {}
        return {
            "memory_limit_mb": self.memory_limit_mb,
            "spill_dir": self._ensure_spill_dir(),
        }

    def _budget_skip(self, exc: ReproError, name: str) -> bool:
        """Whether *exc* is an accepted outcome of budget-mode governance.

        Two typed errors are legitimate under a tiny budget rather than
        strategy bugs: an injected ``REPRO_FAULT=spill_io`` write failure
        surfacing as :class:`SpillError`, and a non-spillable site
        (table materialization, object columns) correctly exhausting the
        budget.  Any other error — including a SpillError with no fault
        injected — still fails the case.
        """
        if self.memory_limit_mb is None or name == ORACLE:
            return False
        if isinstance(exc, SpillError):
            return active_fault() == "spill_io"
        return isinstance(exc, ResourceExhaustedError)

    # ------------------------------------------------------------------ #
    # trace provenance
    # ------------------------------------------------------------------ #

    def attach_trace_text(self, failure: Failure) -> Failure:
        """Re-run the oracle and the failing strategy under tracing and
        attach both rendered span trees (timings off, so the text is
        deterministic) to *failure* — the per-operator provenance the
        corpus writer freezes alongside a minimized regression."""
        if failure.kind == "compile-error":
            return failure
        case = failure.case
        try:
            prepared = self._session(case.db_spec.build()).prepare(case.sql)
        except ReproError:
            return failure
        impls = {impl.name: impl for impl in self.extra_strategies}
        sections: List[str] = []
        for label, name in (("oracle", ORACLE), ("strategy", failure.strategy)):
            if label == "strategy" and name == ORACLE:
                continue  # the oracle itself failed; one trace suffices
            if label == "strategy" and failure.strategy.startswith("oracle:"):
                # external-divergence / external-error: the "strategy" is a
                # real engine — nothing of ours to trace on that side.
                continue
            try:
                _result, trace = prepared.trace(
                    strategy=impls.get(name, name), **self._limits(name)
                )
            except ReproError as exc:
                sections.append(
                    f"{label} {name!r} trace: raised "
                    f"{type(exc).__name__}: {exc}"
                )
                continue
            sections.append(
                f"{label} {name!r} trace:\n"
                + render_trace(trace, timings=False)
            )
        failure.trace_text = "\n".join(sections)
        return failure

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        config: FuzzConfig,
        fail_fast: bool = True,
        progress: Optional[Callable[[int, FuzzReport], None]] = None,
    ) -> FuzzReport:
        """Fuzz for ``config.iterations`` cases; stop at the first failure
        unless *fail_fast* is False."""
        generator = QueryGenerator(config)
        report = FuzzReport(iterations=config.iterations)
        start = time.perf_counter()
        for i in range(config.iterations):
            case = generate_case(config, i, generator)
            _count_operators(case.stmt, report.operator_histogram)
            failure = self.check_case(case, report)
            report.cases_run += 1
            if failure is not None:
                report.failures.append(failure)
                if fail_fast:
                    break
            if progress is not None:
                progress(i, report)
        report.elapsed = time.perf_counter() - start
        self.last_report = report
        return report


def generate_case(
    config: FuzzConfig, iteration: int, generator: Optional[QueryGenerator] = None
) -> FuzzCase:
    """Deterministically generate case *iteration* of a seeded run."""
    generator = generator or QueryGenerator(config)
    rng = case_rng(config.seed, iteration)
    spec = random_database_spec(
        rng,
        n_tables=config.n_tables,
        max_rows=config.max_rows,
        null_rate=config.null_rate,
        domain=config.domain,
    )
    stmt = generator.generate(rng, spec)
    return FuzzCase(stmt=stmt, db_spec=spec, seed=config.seed, iteration=iteration)


def _count_operators(stmt: A.SelectStmt, histogram: Dict[str, int]) -> None:
    def bump(key: str) -> None:
        histogram[key] = histogram.get(key, 0) + 1

    def visit_sub(sub: A.SelectStmt) -> None:
        if sub.group_by:
            bump("group-by-subquery")
        visit(sub.where)
        visit(sub.having)

    def visit(pred: Optional[A.Predicate]) -> None:
        if pred is None:
            return
        if isinstance(pred, (A.AndPred, A.OrPred)):
            visit(pred.left)
            visit(pred.right)
        elif isinstance(pred, A.NotPred):
            visit(pred.operand)
        elif isinstance(pred, A.ExistsPred):
            bump("not_exists" if pred.negated else "exists")
            visit_sub(pred.subquery)
        elif isinstance(pred, A.InSubqueryPred):
            bump("not_in" if pred.negated else "in")
            visit_sub(pred.subquery)
        elif isinstance(pred, A.QuantifiedPred):
            bump(f"{pred.op} {pred.quantifier}")
            visit_sub(pred.subquery)
        elif isinstance(pred, A.ComparisonPred):
            for side in (pred.left, pred.right):
                if isinstance(side, A.ScalarSubquery):
                    call = side.subquery.items[0].expr
                    func = (
                        f"{pred.op} {call.func}{'(*)' if call.star else ''}"
                        if isinstance(call, A.AggregateCall)
                        else f"{pred.op} scalar"
                    )
                    bump(func)
                    visit_sub(side.subquery)

    if stmt.group_by:
        bump("group-by-root")
    visit(stmt.where)
    visit(stmt.having)


# ---------------------------------------------------------------------- #
# bug injection (self-test of the whole fuzz pipeline)
# ---------------------------------------------------------------------- #


def mutate_first_link(query: NestedQuery) -> NestedQuery:
    """A deep copy of *query* with its first linking predicate broken.

    Quantified links get their theta negated (``= SOME`` -> ``<> SOME``);
    IN / NOT IN swap polarity; EXISTS / NOT EXISTS swap polarity.  This is
    exactly the class of bug the differential oracle exists to catch.
    """
    root = copy.deepcopy(query.root)
    for block in root.walk():
        link = block.link
        if link is None:
            continue
        if link.operator == "exists":
            block.link = dc_replace(link, operator="not_exists")
        elif link.operator == "not_exists":
            block.link = dc_replace(link, operator="exists")
        elif link.operator == "in":
            block.link = dc_replace(link, operator="not_in", theta="<>")
        elif link.operator == "not_in":
            block.link = dc_replace(link, operator="in", theta="=")
        else:  # some / all
            assert link.theta is not None
            block.link = dc_replace(link, theta=negate_op(link.theta))
        break
    return NestedQuery(root)


class MutatedLinkStrategy:
    """A deliberately buggy strategy: evaluates the query with one linking
    predicate mutated.  Used by ``repro fuzz --inject-bug`` and the test
    suite to prove the fuzzer catches and shrinks real disagreements."""

    name = "nested-relational[mutated-link]"

    def __init__(self, base: str = "nested-relational"):
        self.base = base

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        mutated = mutate_first_link(query)
        return resolve(mutated, db, self.base).impl.execute(mutated, db)


class MiscountingSpanStrategy:
    """A strategy with correct *results* but broken trace accounting: it
    drops the first ``rows_out`` increment of every span, so the rows it
    returns still match the oracle while the span tree's cardinality
    contracts are broken.  Used by ``repro fuzz --inject-trace-bug`` and
    the test suite to prove that trace-invariant checking catches
    operator miscounts the differential value comparison cannot see."""

    name = "nested-relational[miscounting-span]"

    def __init__(self, base: str = "nested-relational"):
        self.base = base

    def execute(self, query: NestedQuery, db: Database) -> Relation:
        from ..engine import trace as trace_module

        original_add = trace_module.Span.add
        dropped = set()

        def lossy_add(span: "trace_module.Span", name: str, amount: int = 1) -> None:
            if name == "rows_out" and id(span) not in dropped:
                dropped.add(id(span))
                return
            original_add(span, name, amount)

        trace_module.Span.add = lossy_add  # type: ignore[method-assign]
        try:
            return resolve(query, db, self.base).impl.execute(query, db)
        finally:
            trace_module.Span.add = original_add  # type: ignore[method-assign]
