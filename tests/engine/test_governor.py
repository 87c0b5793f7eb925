"""Resource governance: deadlines, memory budgets, cancellation and
fault injection.

The fault matrix runs every ``REPRO_FAULT`` mode against both execution
substrates (row, vectorized) and asserts the governed contract: either a
*typed* governance error or a result identical to the ungoverned oracle
— never a wrong answer, never an untyped crash.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.core import planner
from repro.engine import Column, Schema
from repro.engine.expressions import Col, Comparison
from repro.engine.governor import (
    FAULT_MODES,
    ResourceGovernor,
    _is_mapped,
    active_fault,
    batch_nbytes,
    checkpoint,
    current_governor,
    governed,
)
from repro.engine.metrics import collect
from repro.engine.operators import (
    anti_join,
    basic,
    filter_relation,
    hash_join,
    joins,
    left_outer_hash_join,
    nested_loop_join,
    outer_cross_join,
    semi_join,
)
from repro.engine.relation import Relation
from repro.engine.trace import (
    KIND_GOVERNOR,
    reconcile_with_metrics,
    trace_invariant_violations,
    tracing,
    validate_trace_dict,
)
from repro.engine.vector import Batch, Vector
from repro.engine.vector.column import KIND_STR
from repro.errors import (
    InvalidArgumentError,
    QueryCancelledError,
    QueryTimeoutError,
    ResourceExhaustedError,
    ResourceGovernanceError,
)

SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)

ROW = "nested-relational"
VEC = "nested-relational-vectorized"
STRATEGIES = (ROW, VEC)


@pytest.fixture(scope="module")
def oracle(tiny_tpch):
    """The ungoverned, fault-free answer every governed run must match."""
    return repro.connect(tiny_tpch).execute(SQL, strategy=VEC).sorted().rows


# --------------------------------------------------------------------- #
# Governor object
# --------------------------------------------------------------------- #


class TestGovernorValidation:
    @pytest.mark.parametrize("bad", [0, -5, "fast", True, -0.5])
    def test_bad_timeout_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            ResourceGovernor(timeout_ms=bad)

    @pytest.mark.parametrize("bad", [0, -1, "lots", False])
    def test_bad_memory_limit_rejected(self, bad):
        with pytest.raises(InvalidArgumentError):
            ResourceGovernor(memory_limit_mb=bad)

    def test_connect_rejects_bad_limits_immediately(self, tiny_tpch):
        with pytest.raises(InvalidArgumentError):
            repro.connect(tiny_tpch, timeout_ms=-1)
        with pytest.raises(InvalidArgumentError):
            repro.connect(tiny_tpch, memory_limit_mb=0)

    def test_execute_rejects_bad_per_call_limits(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        with pytest.raises(InvalidArgumentError):
            session.execute(SQL, timeout_ms=0)

    def test_unknown_fault_mode_fails_loudly(self, tiny_tpch, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "worker_crush")
        with pytest.raises(InvalidArgumentError):
            active_fault()
        with pytest.raises(InvalidArgumentError):
            repro.connect(tiny_tpch).execute(SQL, timeout_ms=10_000)


class TestGovernorUnit:
    def test_untimed_governor_has_no_deadline(self):
        gov = ResourceGovernor(memory_limit_mb=1)
        assert gov.remaining_ms() is None
        gov.check("anywhere")  # nothing tripped

    def test_deadline_counts_down_and_trips(self):
        gov = ResourceGovernor(timeout_ms=10_000)
        remaining = gov.remaining_ms()
        assert remaining is not None and 0 < remaining <= 10_000
        gov = ResourceGovernor(timeout_ms=1)
        time.sleep(0.005)
        with pytest.raises(QueryTimeoutError) as err:
            gov.check("unit")
        assert "timeout_ms=1" in str(err.value)
        assert "unit boundary" in str(err.value)

    def test_start_rearms_deadline_and_account(self):
        gov = ResourceGovernor(timeout_ms=1, memory_limit_mb=1)
        gov.charge(500_000)
        time.sleep(0.005)
        gov.start()
        assert gov.reserved_bytes == 0
        assert gov.remaining_ms() > 0
        gov.check("rearmed")

    def test_cancel_trips_typed_error(self):
        gov = ResourceGovernor()
        assert not gov.cancelled
        gov.cancel()
        assert gov.cancelled
        with pytest.raises(QueryCancelledError):
            gov.check("operator")

    def test_charge_over_budget_raises(self):
        gov = ResourceGovernor(memory_limit_mb=1)
        gov.charge(512 * 1024, "half")
        assert gov.reserved_bytes == 512 * 1024
        with pytest.raises(ResourceExhaustedError) as err:
            gov.charge(600 * 1024, "the rest")
        assert "memory_limit_mb=1" in str(err.value)
        assert gov.peak_bytes >= 1024 * 1024

    def test_charge_without_limit_only_accounts(self):
        gov = ResourceGovernor()
        gov.charge(10**9)
        gov.charge(10**9)
        assert gov.reserved_bytes == 2 * 10**9
        gov.check("still fine")

    def test_governance_errors_are_typed(self):
        for exc in (QueryTimeoutError, ResourceExhaustedError,
                    QueryCancelledError):
            assert issubclass(exc, ResourceGovernanceError)

    def test_describe_attrs(self):
        gov = ResourceGovernor(timeout_ms=250, memory_limit_mb=64)
        assert gov.describe_attrs() == {
            "timeout_ms": 250, "memory_limit_mb": 64
        }

    def test_ambient_scope_installs_and_restores(self):
        assert current_governor() is None
        checkpoint("ungoverned no-op")
        gov = ResourceGovernor()
        with governed(gov):
            assert current_governor() is gov
            with governed(None):  # None installs nothing
                assert current_governor() is gov
        assert current_governor() is None


class TestMappedAccounting:
    """``batch_nbytes`` skips what lives in a file mapping — and only
    that.  numpy hands back ``np.memmap``-*typed* arrays that own heap
    memory; the walk must look for a live mapping, not at the type."""

    @pytest.fixture
    def mapping(self, tmp_path):
        path = str(tmp_path / "column.npy")
        np.save(path, np.array([f"a-wide-string-{i}" for i in range(12)]))
        return np.load(path, mmap_mode="r")

    def test_views_of_a_mapping_are_mapped(self, mapping):
        for view in (
            mapping,
            mapping[2:9],
            mapping[2:9].view(np.uint32),
            mapping[::2],
            np.asarray(mapping),
            mapping.view(np.uint32, np.ndarray).reshape(12, -1),
        ):
            assert _is_mapped(view)

    def test_heap_arrays_typed_memmap_are_not(self, mapping):
        idx = np.array([3, 1, 1])
        taken = np.take(mapping, idx)
        widened = mapping.astype("U40")
        # the trap: memmap by type, heap by ownership
        assert isinstance(taken, np.memmap) and taken._mmap is None
        assert isinstance(widened, np.memmap) and widened._mmap is None
        for heap in (
            taken,
            taken[1:],
            widened,
            mapping[idx],
            np.concatenate([mapping, mapping]),
            np.array(mapping),
        ):
            assert not _is_mapped(heap)

    def test_batch_nbytes_counts_the_heap_columns(self, mapping):
        idx = np.array([3, 1, 1])
        valid = np.ones(3, dtype=bool)
        stored = Vector(KIND_STR, mapping, np.ones(12, dtype=bool))
        heap = Vector(KIND_STR, np.take(mapping, idx), valid)
        batch = Batch(Schema([Column("s"), Column("h")]), [stored, heap], 3)
        assert batch_nbytes(batch) == heap.data.nbytes + valid.nbytes


class TestCrossJoinResidualCheckpoint:
    """A keyless join builds the whole cross product's pair lists before
    its residual can discard any; the one checkpoint inside the kernel
    sits between the two, so a deadline or
    a ``cancel()`` that lands during pair construction stops the join
    before the residual is evaluated."""

    @pytest.mark.parametrize(
        "trip,error",
        [("cancel", QueryCancelledError), ("deadline", QueryTimeoutError)],
    )
    def test_trips_before_the_residual_is_evaluated(
        self, monkeypatch, trip, error
    ):
        from repro.engine import governor as governor_module
        from repro.engine.vector import kernels

        clock = [1000.0]
        monkeypatch.setattr(
            governor_module,
            "time",
            type("Clock", (), {
                "monotonic": staticmethod(lambda: clock[0]),
                "sleep": staticmethod(time.sleep),
            }),
        )
        gov = ResourceGovernor(timeout_ms=50)
        real_tile = np.tile

        def tile_then_trip(*args, **kwargs):
            # the tail of the pair construction
            if trip == "cancel":
                gov.cancel()
            else:
                clock[0] += 1.0
            return real_tile(*args, **kwargs)

        def never(*_args, **_kwargs):
            raise AssertionError("the residual was evaluated")

        monkeypatch.setattr(np, "tile", tile_then_trip)
        monkeypatch.setattr(kernels, "eval_truth", never)
        side = Batch(
            Schema([Column("x")]), [Vector.from_values(list(range(50)))], 50
        )
        other = side.rename_table("o")
        residual = Comparison("<", Col("x"), Col("o.x"))
        with governed(gov), pytest.raises(error) as err:
            kernels.cross_join(side, other, residual)
        assert "cross-join residual" in str(err.value)


# --------------------------------------------------------------------- #
# Row operators: checkpoint cadence and where a timeout lands
# --------------------------------------------------------------------- #


def _keyed(table: str, keys) -> Relation:
    return Relation(Schema.of("k", table=table), [(k,) for k in keys])


#: 5000 left rows; half of them find one match on the right
LEFT = _keyed("l", range(5000))
RIGHT = _keyed("r", range(0, 5000, 2))

ROW_OPERATOR_CALLS = {
    "filter": lambda: filter_relation(LEFT, Comparison("<", Col("l.k"), Col("l.k"))),
    "hash_join": lambda: hash_join(LEFT, RIGHT, ["l.k"], ["r.k"]),
    "left_outer_hash_join": lambda: left_outer_hash_join(
        LEFT, RIGHT, ["l.k"], ["r.k"]
    ),
    "semi_join": lambda: semi_join(LEFT, RIGHT, ["l.k"], ["r.k"]),
    "anti_join": lambda: anti_join(LEFT, RIGHT, ["l.k"], ["r.k"]),
    "outer_cross_join": lambda: outer_cross_join(LEFT, _keyed("r", [1, 2])),
    "nested_loop_join": lambda: nested_loop_join(
        LEFT, _keyed("r", [1, 2]), Comparison("=", Col("l.k"), Col("r.k")),
        outer=True,
    ),
}


class TestRowOperatorCheckpoints:
    """Under a governor a row operator reaches a checkpoint at least
    once per 512 rows it reads or writes, so a deadline is noticed
    within 512 rows' time; the check fires inside the operator, whose
    span then says it was cut short."""

    @pytest.mark.parametrize("call", sorted(ROW_OPERATOR_CALLS))
    def test_one_checkpoint_per_512_rows(self, monkeypatch, call):
        sites = []

        def counting(site="operator"):
            sites.append(site)

        monkeypatch.setattr(basic, "checkpoint", counting)
        monkeypatch.setattr(joins, "checkpoint", counting)
        with collect(), tracing() as trace, governed(ResourceGovernor()):
            out = ROW_OPERATOR_CALLS[call]()
        (span,) = [s for s in trace.spans() if s.kind == "operator"]
        rows = max(span.counters["rows_in"], len(out))
        assert sites.count("operator-rows") >= rows // 512
        assert rows >= 5000

    def test_ungoverned_run_checks_no_rows(self, monkeypatch):
        sites = []
        monkeypatch.setattr(joins, "checkpoint", sites.append)
        left_outer_hash_join(LEFT, RIGHT, ["l.k"], ["r.k"])
        assert "operator-rows" not in sites

    def test_timeout_fires_inside_the_join(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "slow_checkpoint")
        monkeypatch.setenv("REPRO_FAULT_MS", "10")
        small = _keyed("r", range(0, 100, 2))
        with collect() as metrics, tracing() as trace:
            with pytest.raises(QueryTimeoutError), governed(
                ResourceGovernor(timeout_ms=50)
            ):
                left_outer_hash_join(LEFT, small, ["l.k"], ["r.k"])
        (span,) = trace.find("LeftOuterHashJoin")
        assert span.aborted and span.closed
        # the probe was cut short, and what it reached is charged
        assert 0 < span.counters["rows_in"] < len(LEFT)
        assert span.self_metrics()["hash_probes"] == span.counters["rows_in"]
        assert trace_invariant_violations(trace) == []
        assert reconcile_with_metrics(trace, metrics.snapshot()) == []


# --------------------------------------------------------------------- #
# Governed execution without faults
# --------------------------------------------------------------------- #


class TestGovernedExecution:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_generous_limits_change_nothing(
        self, tiny_tpch, oracle, monkeypatch, strategy
    ):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        session = repro.connect(tiny_tpch)
        result = session.execute(
            SQL, strategy=strategy, timeout_ms=60_000, memory_limit_mb=2048
        )
        assert result.sorted().rows == oracle

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tiny_memory_budget_trips_real_accounting(
        self, tiny_tpch, strategy
    ):
        # no fault injected: the breach comes from the actual accounting
        # hooks (batch materialization / hash-join build / nest grouping)
        session = repro.connect(tiny_tpch)
        with pytest.raises(ResourceExhaustedError):
            session.execute(SQL, strategy=strategy, memory_limit_mb=0.05)

    def test_precancelled_governor_stops_before_work(self, tiny_tpch):
        query = repro.connect(tiny_tpch).prepare(SQL).query
        gov = ResourceGovernor()
        gov.cancel()
        with pytest.raises(QueryCancelledError), governed(gov):
            planner.run(query, tiny_tpch, VEC)

    def test_governed_trace_carries_governor_span(
        self, tiny_tpch, oracle, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        result, trace = repro.connect(tiny_tpch).prepare(SQL).trace(
            strategy=VEC, timeout_ms=60_000, memory_limit_mb=2048
        )
        assert result.sorted().rows == oracle
        spans = trace.find("governor")
        assert spans and spans[0].kind == KIND_GOVERNOR
        assert spans[0].attrs["timeout_ms"] == 60_000
        assert trace_invariant_violations(trace) == []
        assert validate_trace_dict(trace.to_dict()) == []

    def test_session_wide_defaults_flow_into_execute(
        self, tiny_tpch, monkeypatch
    ):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        session = repro.connect(tiny_tpch, memory_limit_mb=0.05)
        with pytest.raises(ResourceExhaustedError):
            session.execute(SQL, strategy=VEC)
        # per-call override loosens the session default
        session.execute(SQL, strategy=VEC, memory_limit_mb=2048)


# --------------------------------------------------------------------- #
# The fault matrix: every REPRO_FAULT mode x every substrate
# --------------------------------------------------------------------- #


class TestFaultMatrix:
    def test_fault_modes_are_covered(self):
        assert set(FAULT_MODES) == {
            "slow_checkpoint", "alloc_spike", "spill_io",
        }

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_slow_checkpoint_is_slow_but_correct(
        self, tiny_tpch, oracle, monkeypatch, strategy
    ):
        monkeypatch.setenv("REPRO_FAULT", "slow_checkpoint")
        monkeypatch.setenv("REPRO_FAULT_MS", "1")
        result = repro.connect(tiny_tpch).execute(
            SQL, strategy=strategy, timeout_ms=60_000
        )
        assert result.sorted().rows == oracle

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_alloc_spike_trips_memory_budget(
        self, tiny_tpch, monkeypatch, strategy
    ):
        monkeypatch.setenv("REPRO_FAULT", "alloc_spike")
        with pytest.raises(ResourceExhaustedError):
            repro.connect(tiny_tpch).execute(
                SQL, strategy=strategy, memory_limit_mb=64
            )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_alloc_spike_without_budget_is_inert(
        self, tiny_tpch, oracle, monkeypatch, strategy
    ):
        monkeypatch.setenv("REPRO_FAULT", "alloc_spike")
        result = repro.connect(tiny_tpch).execute(
            SQL, strategy=strategy, timeout_ms=60_000
        )
        assert result.sorted().rows == oracle

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_timeout_within_twice_the_deadline(
        self, tiny_tpch, monkeypatch, strategy
    ):
        # the acceptance bar: timeout_ms=50 against a deliberately slow
        # plan raises within 2x the deadline on every substrate
        session = repro.connect(tiny_tpch)
        # fault-free warm-up: pay one-time costs (batch conversion)
        # outside the timed window so the bound measures the
        # engine's checkpoint coverage
        session.execute(SQL, strategy=strategy, timeout_ms=60_000)
        monkeypatch.setenv("REPRO_FAULT", "slow_checkpoint")
        monkeypatch.setenv("REPRO_FAULT_MS", "10")
        t0 = time.perf_counter()
        with pytest.raises(QueryTimeoutError) as err:
            session.execute(SQL, strategy=strategy, timeout_ms=50)
        elapsed_ms = (time.perf_counter() - t0) * 1000
        assert "timeout_ms=50" in str(err.value)
        assert elapsed_ms <= 100, (
            f"QueryTimeoutError took {elapsed_ms:.1f}ms, over 2x the "
            f"50ms deadline"
        )


# --------------------------------------------------------------------- #
# Partial traces from failed executions
# --------------------------------------------------------------------- #


class TestPartialTraces:
    def test_timeout_mid_flight_leaves_valid_trace(
        self, tiny_tpch, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT", "slow_checkpoint")
        monkeypatch.setenv("REPRO_FAULT_MS", "10")
        query = repro.connect(tiny_tpch).prepare(SQL).query
        gov = ResourceGovernor(timeout_ms=50)
        with collect() as m, tracing() as trace:
            with pytest.raises(QueryTimeoutError), governed(gov):
                planner.run(query, tiny_tpch, VEC)
        assert [s for s in trace.spans() if s.aborted], (
            "the failing spans must be marked aborted"
        )
        assert all(s.closed for s in trace.spans())
        assert trace_invariant_violations(trace) == []
        assert reconcile_with_metrics(trace, m.counters) == []


# --------------------------------------------------------------------- #
# CLI governance flags
# --------------------------------------------------------------------- #


class TestCliGovernance:
    def test_timeout_flag_surfaces_typed_error(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT", "slow_checkpoint")
        monkeypatch.setenv("REPRO_FAULT_MS", "10")
        code = main(
            ["run", SQL, "--tpch", "0.002", "--timeout-ms", "50"]
        )
        assert code != 0
        assert "timeout_ms=50" in capsys.readouterr().err

    def test_generous_flags_run_clean(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_FAULT", raising=False)

        code = main(
            ["run", "select n_name from nation where n_nationkey < 3",
             "--tpch", "0.001", "--timeout-ms", "60000",
             "--memory-limit-mb", "2048"]
        )
        assert code == 0
        assert "row(s)" in capsys.readouterr().out
