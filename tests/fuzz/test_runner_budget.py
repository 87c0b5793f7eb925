"""Tiny-memory-budget fuzzing: spill paths on random queries."""

from __future__ import annotations

import os

import pytest

from repro.fuzz import DifferentialRunner, FuzzConfig


def _run(tmp_path, monkeypatch=None, fault=None, iterations=8, **kwargs):
    if monkeypatch is not None and fault is not None:
        monkeypatch.setenv("REPRO_FAULT", fault)
    runner = DifferentialRunner(
        memory_limit_mb=0.002,  # ~2 KB: every join/nest wants to spill
        spill_dir=str(tmp_path),
        **kwargs,
    )
    config = FuzzConfig(iterations=iterations, seed=7, max_rows=8)
    return runner.run(config)


def test_budget_mode_matches_oracle(tmp_path):
    report = _run(tmp_path)
    assert report.ok, report.failures[0].describe() if report.failures else ""
    assert report.cases_run == report.iterations
    # the budget mode must still compare real executions, not skip all
    assert report.strategy_checks > 0
    # spill passes cleaned their temp directories behind themselves
    assert os.listdir(str(tmp_path)) == []


def test_budget_mode_never_reads_the_reduce_memo(tmp_path):
    """A memo hit would skip the table materialization charge and move
    which ops spill, so budgeted runs reduce from the base tables."""
    runner = DifferentialRunner(
        memory_limit_mb=0.002, spill_dir=str(tmp_path)
    )
    assert runner.run(FuzzConfig(iterations=4, seed=7, max_rows=8)).ok
    stats = runner.reduce_cache.stats
    assert stats.reduce_hits == stats.reduce_misses == 0


def test_budget_mode_accepts_injected_spill_failure(tmp_path, monkeypatch):
    """REPRO_FAULT=spill_io surfaces typed SpillErrors; the runner counts
    them as governed skips, not strategy bugs."""
    report = _run(tmp_path, monkeypatch, fault="spill_io")
    assert report.ok, report.failures[0].describe() if report.failures else ""
    assert os.listdir(str(tmp_path)) == []


def test_spill_error_without_fault_is_a_failure(tmp_path):
    """An uninjected SpillError must NOT be silently accepted."""
    from repro.errors import SpillError

    runner = DifferentialRunner(
        memory_limit_mb=0.002, spill_dir=str(tmp_path)
    )
    assert not runner._budget_skip(SpillError("real bug"), "nested-relational")


def test_oracle_is_never_budgeted(tmp_path):
    from repro.errors import ResourceExhaustedError
    from repro.fuzz.runner import ORACLE

    runner = DifferentialRunner(
        memory_limit_mb=0.002, spill_dir=str(tmp_path)
    )
    assert not runner._budget_skip(ResourceExhaustedError("x"), ORACLE)
