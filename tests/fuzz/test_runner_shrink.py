"""The differential runner, the shrinker, and the corpus writer —
including the end-to-end self-test: an injected linking-predicate bug
must be caught, minimized, and frozen as a runnable regression."""

import subprocess
import sys

import pytest

import repro
from repro.fuzz import (
    DifferentialRunner,
    FuzzCase,
    FuzzConfig,
    MiscountingSpanStrategy,
    MutatedLinkStrategy,
    case_digest,
    corpus_module_source,
    generate_case,
    is_interesting,
    mutate_first_link,
    run_fuzz,
    shrink_case,
    write_corpus_file,
)
from repro.fuzz.shrink import _stmt_variants
from repro.sql import parse


class TestCleanRun:
    def test_small_run_is_ok(self):
        config = FuzzConfig(iterations=25, seed=3)
        report = DifferentialRunner().run(config)
        assert report.ok
        assert report.cases_run == 25
        assert report.strategy_checks > 0
        assert "OK" in report.summary()

    def test_later_strategies_read_the_reduce_memo(self):
        """A case's second and later nested relational executions are
        handed the T_i an earlier one built, and still agree."""
        runner = DifferentialRunner()
        report = runner.run(FuzzConfig(iterations=25, seed=3))
        assert report.ok
        assert runner.reduce_cache.stats.reduce_hits > 0

    def test_progress_callback_invoked(self):
        seen = []
        config = FuzzConfig(iterations=5, seed=3)
        DifferentialRunner().run(config, progress=lambda i, r: seen.append(i))
        assert seen == [0, 1, 2, 3, 4]


def _first_injected_failure(seed=42, max_iterations=500):
    """Run with the mutated strategy until the first disagreement."""
    config = FuzzConfig(iterations=max_iterations, seed=seed)
    runner = DifferentialRunner(extra_strategies=[MutatedLinkStrategy()])
    report = runner.run(config)
    return runner, report


class TestBugInjection:
    def test_mutation_flips_the_link(self):
        db = generate_case(FuzzConfig(iterations=1, seed=1), 0).db_spec.build()
        query = repro.compile_sql(
            "select b0.k from t0 b0 where exists (select * from t1 b1)", db
        )
        mutated = mutate_first_link(query)
        links = [b.link for b in mutated.root.walk() if b.link is not None]
        assert links[0].operator == "not_exists"
        # the original query is untouched
        original = [b.link for b in query.root.walk() if b.link is not None]
        assert original[0].operator == "exists"

    def test_injected_bug_caught_within_500_iterations(self):
        """ISSUE acceptance: a deliberately mutated linking predicate is
        detected by the differential oracle in under 500 cases."""
        runner, report = _first_injected_failure()
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "disagreement"
        assert failure.strategy == "nested-relational[mutated-link]"
        assert report.cases_run <= 500

    def test_injected_bug_shrinks_and_freezes(self, tmp_path):
        """...and the shrunk case lands in the corpus as a pytest file."""
        config = FuzzConfig(iterations=500, seed=42)
        runner = DifferentialRunner(extra_strategies=[MutatedLinkStrategy()])
        outcome = run_fuzz(config, runner=runner, corpus_dir=str(tmp_path))
        assert not outcome.ok
        assert outcome.shrunk_case is not None
        original = outcome.report.failures[0].case
        assert outcome.shrunk_case.db_spec.total_rows <= original.db_spec.total_rows
        assert len(outcome.shrunk_case.sql) <= len(original.sql)
        # the shrunk case still fails the same way
        assert is_interesting(runner.check_case(outcome.shrunk_case))
        assert outcome.corpus_path is not None
        # the frozen regression runs green under plain pytest (it pins the
        # *registered* strategies, which all agree)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", outcome.corpus_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestTraceBugInjection:
    """A strategy whose *results* are right but whose operator spans
    miscount rows must be caught by the trace invariants — the class of
    bug the differential value comparison cannot see."""

    def test_results_match_but_trace_fails(self):
        """The miscounting strategy agrees with the oracle on values."""
        case = generate_case(FuzzConfig(iterations=1, seed=7), 0)
        db = case.db_spec.build()
        prepared = repro.connect(db).prepare(case.sql)
        query = prepared.query
        oracle = prepared.execute(strategy="nested-iteration")
        assert MiscountingSpanStrategy().execute(query, db) == oracle

    def test_caught_by_trace_invariants(self):
        config = FuzzConfig(iterations=100, seed=7)
        runner = DifferentialRunner(
            extra_strategies=[MiscountingSpanStrategy()]
        )
        report = runner.run(config)
        assert not report.ok
        failure = report.failures[0]
        assert failure.kind == "trace"
        assert failure.strategy == "nested-relational[miscounting-span]"

    def test_invisible_without_trace_checking(self):
        """With check_traces off, the same run is clean — the bug really
        is invisible to value comparison and Metrics checks alone."""
        config = FuzzConfig(iterations=25, seed=7)
        runner = DifferentialRunner(
            extra_strategies=[MiscountingSpanStrategy()],
            check_traces=False,
        )
        assert runner.run(config).ok

    def test_shrinks_and_freezes_with_traces(self, tmp_path):
        config = FuzzConfig(iterations=100, seed=7)
        runner = DifferentialRunner(
            extra_strategies=[MiscountingSpanStrategy()]
        )
        outcome = run_fuzz(config, runner=runner, corpus_dir=str(tmp_path))
        assert not outcome.ok
        assert outcome.shrunk_failure is not None
        assert outcome.shrunk_failure.kind == "trace"
        # both per-operator traces ride along into the frozen regression
        assert outcome.shrunk_failure.trace_text
        assert "oracle 'nested-iteration' trace:" in outcome.shrunk_failure.trace_text
        with open(outcome.corpus_path) as handle:
            source = handle.read()
        assert "Per-operator traces at the minimized case:" in source
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", outcome.corpus_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestAutoRuleInvariant:
    """A traced ``auto`` execution must run what the rule names; one that
    runs something else is reported even when its rows are right."""

    def test_a_wrong_auto_choice_is_reported(self, monkeypatch):
        from repro.core import optimizer
        from repro.strategies import make

        def wrong(query, db, backend=None, memory_limit_mb=None):
            name = "nested-relational"
            return optimizer.PlannerDecision(name, make(name), (name,))

        monkeypatch.setattr(optimizer, "choose", wrong)
        runner = DifferentialRunner(strategies=("auto",))
        report = runner.run(FuzzConfig(iterations=3, seed=7))
        assert not report.ok
        failure = report.failures[0]
        assert (failure.strategy, failure.kind) == ("auto", "planner")
        assert "'nested-relational'" in failure.detail
        assert "nested-relational-vectorized" in failure.detail

    def test_the_rule_passes(self):
        runner = DifferentialRunner(strategies=("auto",))
        assert runner.run(FuzzConfig(iterations=3, seed=7)).ok


class TestAttachTraceText:
    def test_disagreement_gets_both_traces(self):
        runner, report = _first_injected_failure()
        failure = runner.attach_trace_text(report.failures[0])
        assert failure.trace_text
        assert "oracle 'nested-iteration' trace:" in failure.trace_text
        assert (
            "strategy 'nested-relational[mutated-link]' trace:"
            in failure.trace_text
        )
        # rendered without timings: deterministic, no wall-clock noise
        assert "ms" not in failure.trace_text
        # describe() carries the traces too (indented under the failure)
        assert "oracle 'nested-iteration' trace:" in failure.describe()

    def test_compile_error_failures_skipped(self):
        case = generate_case(FuzzConfig(iterations=1, seed=3), 0)
        from repro.fuzz import Failure

        failure = Failure(case, "<compile>", "compile-error", "nope")
        assert DifferentialRunner().attach_trace_text(failure).trace_text is None


class TestShrinker:
    def test_shrink_requires_a_failing_case(self):
        case = generate_case(FuzzConfig(iterations=1, seed=3), 0)
        runner = DifferentialRunner()
        with pytest.raises(ValueError):
            shrink_case(case, runner.check_case)

    def test_variants_are_structurally_smaller(self):
        stmt = parse(
            "select b0.k from t0 b0 where b0.a > 1 and "
            "exists (select * from t1 b1 where b1.a = b0.a)"
        )
        for variant in _stmt_variants(stmt):
            assert len(str(variant)) <= len(str(stmt)) or variant != stmt

    def test_compile_error_is_not_interesting(self):
        from repro.fuzz.runner import Failure

        case = generate_case(FuzzConfig(iterations=1, seed=3), 0)
        assert not is_interesting(
            Failure(case, "<compile>", "compile-error", "nope")
        )
        assert not is_interesting(None)
        assert is_interesting(Failure(case, "x", "disagreement", "d"))


class TestCorpus:
    def _case(self):
        return generate_case(FuzzConfig(iterations=1, seed=8), 2)

    def test_digest_stable_and_content_sensitive(self):
        case = self._case()
        assert case_digest(case) == case_digest(case)
        other = generate_case(FuzzConfig(iterations=1, seed=8), 3)
        assert case_digest(case) != case_digest(other)

    def test_module_source_is_valid_python(self):
        source = corpus_module_source(self._case())
        compile(source, "<corpus>", "exec")
        assert "def test_all_strategies_agree_with_oracle" in source

    def test_written_file_passes_pytest(self, tmp_path):
        path = write_corpus_file(self._case(), str(tmp_path))
        assert path.endswith(".py")
        assert (tmp_path / "__init__.py").exists()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_bad_name_rejected(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            write_corpus_file(self._case(), str(tmp_path), name="fuzz.py")
