"""The ``REPRO_FAULT`` mode is read once per execution.

``PreparedQuery._run`` resolves the mode through
:func:`~repro.engine.governor.active_fault` into the ``fault`` field of
the execution's :class:`~repro.engine.context.ExecutionContext`, and
every ``checkpoint()`` and spill write of that execution reads the
field.  Outside any execution the field is unresolved, and a bare
``checkpoint()`` reads the environment itself.  These tests hold under
every ``REPRO_FAULT`` mode the environment sets.
"""

from __future__ import annotations

import pytest

import repro
from repro import session as session_module
from repro.engine import governor as governor_module
from repro.engine.context import UNRESOLVED_FAULT, current, scope
from repro.engine.governor import (
    ResourceGovernor,
    checkpoint,
    governed,
    maybe_spill_io_failure,
)
from repro.errors import (
    InvalidArgumentError,
    ResourceExhaustedError,
    SpillError,
)

from ..core.test_explain_golden import PAPER_QUERIES

BACKENDS = ("row", "vector")

SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)


@pytest.fixture
def reads(monkeypatch):
    """The calls of ``active_fault`` from now on, by any reader."""
    calls = []
    real = governor_module.active_fault

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(governor_module, "active_fault", counted)
    monkeypatch.setattr(session_module, "active_fault", counted)
    return calls


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sql", [p.values[1] for p in PAPER_QUERIES],
                         ids=[p.id for p in PAPER_QUERIES])
def test_a_warm_execution_reads_the_fault_mode_once(
    tiny_tpch, reads, backend, sql
):
    prepared = repro.connect(tiny_tpch).prepare(sql)
    prepared.execute(backend=backend)
    reads.clear()
    prepared.execute(backend=backend)
    assert len(reads) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_mode_set_between_executions_applies_to_the_next(
    tiny_tpch, monkeypatch, backend
):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    prepared = repro.connect(tiny_tpch, memory_limit_mb=64).prepare(SQL)
    want = prepared.execute(backend=backend).sorted().rows
    monkeypatch.setenv("REPRO_FAULT", "alloc_spike")
    with pytest.raises(ResourceExhaustedError):
        prepared.execute(backend=backend)
    monkeypatch.delenv("REPRO_FAULT")
    assert prepared.execute(backend=backend).sorted().rows == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_unknown_mode_raises_from_execute(tiny_tpch, monkeypatch, backend):
    prepared = repro.connect(tiny_tpch).prepare(SQL)
    monkeypatch.setenv("REPRO_FAULT", "slow_chekpoint")
    with pytest.raises(InvalidArgumentError, match="REPRO_FAULT"):
        prepared.execute(backend=backend)


def test_a_bare_checkpoint_reads_the_environment(monkeypatch):
    assert current().fault is UNRESOLVED_FAULT
    monkeypatch.setenv("REPRO_FAULT", "alloc_spike")
    governor = ResourceGovernor(memory_limit_mb=1)
    with governed(governor), pytest.raises(ResourceExhaustedError):
        checkpoint()
    monkeypatch.setenv("REPRO_FAULT", "spill_io")
    with pytest.raises(SpillError):
        maybe_spill_io_failure()


def test_an_execution_reads_its_own_mode_not_the_environment(monkeypatch):
    """Inside an execution's scope the resolved field decides, whatever
    the environment says by then."""
    monkeypatch.setenv("REPRO_FAULT", "alloc_spike")
    governor = ResourceGovernor(memory_limit_mb=1)
    with governed(governor), scope(fault=None):
        checkpoint()
    monkeypatch.setenv("REPRO_FAULT", "spill_io")
    with scope(fault=None):
        maybe_spill_io_failure()
    monkeypatch.delenv("REPRO_FAULT")
    with scope(fault="spill_io"), pytest.raises(SpillError):
        maybe_spill_io_failure()
