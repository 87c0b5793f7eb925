"""The public Session/PreparedQuery surface, the strategy registry, the
typed error contract, and the deprecation shims over the 1.0 entry
points."""

from __future__ import annotations

import pytest

import repro
from repro.cli import main
from repro.errors import InvalidArgumentError, PlanError, ReproError

SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)


@pytest.fixture(scope="module")
def micro_tpch():
    # the nested-iteration oracle is O(|orders| x |lineitem|); keep the
    # tests that compare against it on a few hundred rows
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.0002))


class TestSession:
    def test_prepare_execute_roundtrip(self, micro_tpch):
        session = repro.connect(micro_tpch)
        prepared = session.prepare(SQL)
        auto = prepared.execute()
        oracle = prepared.execute(strategy="nested-iteration")
        assert auto == oracle

    def test_backend_selection_is_transparent(self, tiny_tpch_nulls):
        prepared = repro.connect(tiny_tpch_nulls).prepare(SQL)
        row = prepared.execute(backend="row")
        vec = prepared.execute(backend="vector")
        assert row.sorted() == vec.sorted()

    def test_prepare_once_execute_many(self, tiny_tpch):
        prepared = repro.connect(tiny_tpch).prepare(SQL)
        first = prepared.execute(strategy="nested-relational")
        second = prepared.execute(strategy="nested-relational-vectorized")
        assert first.sorted() == second.sorted()

    def test_trace_returns_span_tree(self, tiny_tpch):
        result, trace = repro.connect(tiny_tpch).prepare(SQL).trace(
            backend="vector"
        )
        assert trace.root is not None
        assert trace.root.counters["rows_out"] == len(result)

    def test_explain_analyze(self, tiny_tpch):
        text = repro.connect(tiny_tpch).prepare(SQL).explain(
            strategy="nested-relational-vectorized", analyze=True,
            timings=False,
        )
        assert "EXPLAIN ANALYZE" in text
        assert "vec-nest-link" in text

    def test_session_one_shot_execute(self, tiny_tpch):
        out = repro.connect(tiny_tpch).execute(
            "select n_name from nation where n_nationkey < 3"
        )
        assert len(out) == 3

    def test_session_strategies_listing(self, tiny_tpch):
        names = repro.connect(tiny_tpch).strategies()
        assert "nested-relational-vectorized" in names
        assert "auto" in names


class TestTypedErrors:
    def test_connect_rejects_non_database(self):
        with pytest.raises(InvalidArgumentError):
            repro.connect({"not": "a database"})

    def test_prepare_rejects_non_string(self, tiny_tpch):
        with pytest.raises(InvalidArgumentError):
            repro.connect(tiny_tpch).prepare(42)

    def test_unknown_strategy_is_plan_error(self, tiny_tpch):
        prepared = repro.connect(tiny_tpch).prepare(SQL)
        with pytest.raises(PlanError):
            prepared.execute(strategy="no-such-strategy")

    def test_unknown_backend_is_plan_error(self, tiny_tpch):
        prepared = repro.connect(tiny_tpch).prepare(SQL)
        with pytest.raises(PlanError):
            prepared.execute(backend="gpu")

    def test_row_only_strategy_on_vector_backend(self, tiny_tpch):
        prepared = repro.connect(tiny_tpch).prepare(SQL)
        with pytest.raises(PlanError):
            prepared.execute(strategy="system-a-native", backend="vector")

    def test_backend_alias_maps_generic_names(self, micro_tpch):
        prepared = repro.connect(micro_tpch).prepare(SQL)
        # the generic name resolves to the vectorized entry on "vector"
        out = prepared.execute(strategy="nested-relational", backend="vector")
        assert out == prepared.execute(strategy="nested-iteration")

    def test_fuzz_config_out_of_range(self):
        from repro.fuzz import FuzzConfig

        with pytest.raises(InvalidArgumentError):
            FuzzConfig(max_depth=9)
        # still catchable as ValueError (1.0 compatibility)
        with pytest.raises(ValueError):
            FuzzConfig(null_rate=3.0)

    def test_tpch_query_argument_errors(self):
        from repro.tpch import query2, query3

        with pytest.raises(InvalidArgumentError):
            query2("most", 1, 30, 6000, 25)
        with pytest.raises(InvalidArgumentError):
            query3("all", "maybe", "a", 1, 30, 6000, 25)

    def test_all_public_errors_share_base(self):
        assert issubclass(InvalidArgumentError, ReproError)
        assert issubclass(PlanError, ReproError)


class TestCliErrorMapping:
    def test_analysis_error_maps_to_stderr_and_exit_2(self, capsys):
        code = main(["run", "select x from nosuchtable", "--tpch", "0.001"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "nosuchtable" in captured.err
        assert "Traceback" not in captured.err

    def test_parse_error_maps_cleanly(self, capsys):
        code = main(["run", "selec oops", "--tpch", "0.001"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")

    def test_unknown_strategy_maps_cleanly(self, capsys):
        code = main(
            ["run", "select n_name from nation", "--tpch", "0.001",
             "--strategy", "warp-drive"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "warp-drive" in captured.err

    def test_list_strategies_flag(self, capsys):
        """The registry listing — name, backend, description, and the
        ``auto`` rule — is pinned, so a refactor cannot silently drop or
        rename an entry."""
        import os

        assert main(["run", "--list-strategies"]) == 0
        out = capsys.readouterr().out
        golden = os.path.join(
            os.path.dirname(__file__), "golden", "strategies.txt"
        )
        with open(golden) as handle:
            assert out == handle.read()

    def test_run_with_vector_backend(self, capsys):
        code = main(
            ["run", "select n_name from nation where n_nationkey < 3",
             "--tpch", "0.001", "--backend", "vector"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend=vector" in out


class TestVerify:
    def test_verify_against_sqlite(self, micro_tpch):
        report = repro.connect(micro_tpch).prepare(SQL).verify()
        assert report.ok
        assert report.engine == "sqlite"
        assert report.strategy == "auto"

    def test_verify_specific_strategy_and_plans(self, micro_tpch):
        report = repro.connect(micro_tpch).prepare(SQL).verify(
            strategy="nested-relational-vectorized", capture_plans=True
        )
        assert report.ok
        assert report.plan_theirs  # EXPLAIN QUERY PLAN text captured

    def test_verify_internal_engine(self, micro_tpch):
        report = repro.connect(micro_tpch).prepare(SQL).verify(
            engine="internal", strategy="nested-relational"
        )
        assert report.ok and report.engine == "internal"

    def test_verify_unknown_engine_raises(self, micro_tpch):
        from repro.errors import OracleUnavailableError

        with pytest.raises(OracleUnavailableError):
            repro.connect(micro_tpch).prepare(SQL).verify(engine="warp-db")
