"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main


class TestStrategies:
    def test_lists_strategies(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "nested-relational" in out
        assert "system-a-native" in out
        assert "auto" in out


class TestGenerateAndRun:
    def test_gen_then_run_from_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        assert main(["gen", "--sf", "0.001", "--out", store_dir]) == 0
        capsys.readouterr()
        code = main(
            [
                "run",
                "select o_orderkey from orders where o_totalprice > 50000",
                "--store",
                store_dir,
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "row(s)" in out
        assert "agrees" in out

    def test_run_against_generated_tpch(self, capsys):
        code = main(
            [
                "run",
                "select p_partkey, p_name from part where p_size >= 48",
                "--tpch",
                "0.001",
                "--strategy",
                "nested-relational",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "part.p_partkey" in out

    NESTED_SQL = (
        "select o_orderkey, o_orderpriority from orders "
        "where o_totalprice > all (select l_extendedprice from lineitem "
        "where l_orderkey = o_orderkey)"
    )

    def _run_nested_with_check(self, capsys, scale_factor):
        code = main(
            ["run", self.NESTED_SQL, "--tpch", scale_factor, "--check"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "agrees" in out
        assert " 0 row(s)" not in f" {out}"

    def test_run_nested_query_with_check(self, capsys):
        # 150 orders: the nested-iteration check is quadratic in the
        # scale factor, and at this one it still has ~130 answers to match
        self._run_nested_with_check(capsys, "0.0001")

    @pytest.mark.full_scale
    def test_run_nested_query_with_check_at_sf_0_001(self, capsys):
        self._run_nested_with_check(capsys, "0.001")

    def test_run_from_file(self, tmp_path, capsys):
        sql_file = tmp_path / "q.sql"
        sql_file.write_text("select n_name from nation where n_nationkey < 3")
        code = main(["run", "--file", str(sql_file), "--tpch", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 row(s)" in out

    def test_missing_sql_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "--tpch", "0.001"])


class TestExplain:
    def test_explain_nested_relational(self, capsys):
        sql = (
            "select o_orderkey from orders where o_totalprice > all "
            "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
        )
        code = main(["explain", sql, "--tpch", "0.001",
                     "--strategy", "nested-relational"])
        out = capsys.readouterr().out
        assert code == 0
        assert "T1: orders" in out
        assert "υ" in out  # a nest operator in the plan
        assert "ALL" in out

    def test_explain_system_a(self, capsys):
        sql = (
            "select o_orderkey from orders where o_totalprice > all "
            "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
        )
        code = main(["explain", sql, "--tpch", "0.001",
                     "--strategy", "system-a-native"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nested-iteration" in out

    def test_explain_auto_names_choice(self, capsys):
        sql = "select o_orderkey from orders where exists (select * from lineitem where l_orderkey = o_orderkey)"
        code = main(["explain", sql, "--tpch", "0.001", "--strategy", "auto"])
        out = capsys.readouterr().out
        assert code == 0
        assert "auto ->" in out


class TestFuzz:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--iterations", "30",
                "--seed", "3",
                "--quiet",
                "--corpus-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: 30 case(s)" in out
        assert "linking operators seen" in out
        # nothing failed, so nothing was frozen
        assert not list(tmp_path.glob("test_fuzz_*.py"))

    def test_inject_bug_caught_and_frozen(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--iterations", "500",
                "--seed", "42",
                "--quiet",
                "--inject-bug",
                "--corpus-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "mutated-link" in out
        assert "minimized failure" in out
        assert "regression written to" in out
        assert list(tmp_path.glob("test_fuzz_*.py"))

    def test_inject_trace_bug_caught(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--iterations", "100",
                "--seed", "7",
                "--quiet",
                "--inject-trace-bug",
                "--corpus-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "miscounting-span" in out
        assert "trace" in out
        assert list(tmp_path.glob("test_fuzz_*.py"))

    def test_strategy_subset_flag(self, tmp_path, capsys):
        code = main(
            [
                "fuzz",
                "--iterations", "10",
                "--seed", "1",
                "--strategies", "nested-relational,system-a-native",
                "--quiet",
                "--corpus-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "OK: 10 case(s)" in out


class TestBench:
    def test_single_figure(self, capsys):
        code = main(["bench", "--figure", "fig4", "--sf", "0.001"])
        out = capsys.readouterr().out
        assert code == 0
        assert "F4" in out
        assert "system-a-native" in out

    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["bench", "--figure", "fig99", "--sf", "0.001"])

    def test_trace_dir_writes_valid_artifact(self, tmp_path, capsys):
        import json

        from repro.engine.trace import validate_trace_dict

        code = main(
            ["bench", "--figure", "fig4", "--sf", "0.001",
             "--trace-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        artifact = tmp_path / "BENCH_fig4.json"
        assert str(artifact) in out
        with open(artifact) as handle:
            payload = json.load(handle)
        assert payload["figure"] == "fig4"
        traces = [
            m["trace"]
            for exp in payload["experiments"]
            for point in exp["points"]
            for m in point["measurements"].values()
        ]
        assert traces and all(t is not None for t in traces)
        for trace in traces:
            assert validate_trace_dict(trace) == []


class TestRunTrace:
    SQL = (
        "select o_orderkey from orders where o_totalprice > all "
        "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
    )

    def test_trace_text(self, capsys):
        code = main(["run", self.SQL, "--tpch", "0.001", "--trace", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "execute(strategy=" in out
        assert "rows=" in out

    def test_trace_json_to_file(self, tmp_path, capsys):
        import json

        from repro.engine.trace import validate_trace_dict

        path = tmp_path / "trace.json"
        code = main(
            ["run", self.SQL, "--tpch", "0.001", "--trace", "json",
             "--trace-out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert str(path) in out
        with open(path) as handle:
            assert validate_trace_dict(json.load(handle)) == []


class TestExplainAnalyze:
    SQL = (
        "select o_orderkey from orders where o_totalprice > all "
        "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
    )

    def test_analyze_annotates_plan(self, capsys):
        code = main(["explain", self.SQL, "--tpch", "0.001", "--analyze"])
        out = capsys.readouterr().out
        assert code == 0
        assert "EXPLAIN ANALYZE" in out
        assert "rows=" in out
        assert "weighted cost" in out
        assert "ms" in out

    def test_no_timings_is_deterministic(self, capsys):
        argv = ["explain", self.SQL, "--tpch", "0.001",
                "--analyze", "--no-timings"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "ms" not in first.split("EXPLAIN ANALYZE")[1]
        assert first == second
