"""No code path of the package raises a DeprecationWarning: session
execution, the ``auto`` rule, tracing, explain, verify, the CLI and
the fuzzer all run clean, the 1.0 entry points (``repro.run_sql``,
``repro.core.planner.execute`` / ``execute_traced``) are gone, and
``pyproject.toml`` turns any future ``DeprecationWarning`` raised from
``repro.*`` into a tier-1 failure.
"""

import warnings

import pytest

import repro
from repro.options import ExecutionOptions

SQL = (
    "select o_orderkey from orders where exists "
    "(select * from lineitem where l_orderkey = o_orderkey)"
)


@pytest.fixture()
def strict():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestInternalPathsAreClean:
    def test_session_execution_surface(self, tiny_tpch, strict):
        session = repro.connect(tiny_tpch)
        query = session.prepare(SQL)
        result = query.execute()
        assert query.execute(strategy="nested-relational") == result
        assert query.execute(backend="vector").sorted() == result.sorted()
        assert query.execute(options=ExecutionOptions(threads=2)) == result
        traced, trace = query.trace()
        assert traced == result
        assert trace.root.attrs["strategy"] == "nested-relational-vectorized"

    def test_explain_and_describe(self, tiny_tpch, strict):
        query = repro.connect(tiny_tpch).prepare(SQL)
        plan = query.explain()
        plan.render("json")
        query.describe()

    def test_verify_path(self, tiny_tpch, strict):
        report = repro.connect(tiny_tpch).prepare(SQL).verify(
            strategy="nested-relational"
        )
        assert report.acceptable

    def test_fuzz_runner_path(self, strict):
        from repro.fuzz import DifferentialRunner, FuzzConfig, run_fuzz

        outcome = run_fuzz(
            FuzzConfig(iterations=3, seed=11),
            runner=DifferentialRunner(),
            corpus_dir=None,
            shrink=False,
        )
        assert outcome.ok

    def test_cli_run_and_explain(self, strict, capsys):
        from repro.cli import main

        assert main(["run", SQL, "--tpch", "0.001"]) == 0
        assert main(["explain", SQL, "--tpch", "0.001"]) == 0
        capsys.readouterr()


class TestShimsAreGone:
    @pytest.mark.parametrize(
        "module", [repro, repro.core, repro.core.planner],
        ids=lambda m: m.__name__,
    )
    @pytest.mark.parametrize("name", ["run_sql", "execute", "execute_traced"])
    def test_name_is_absent(self, module, name):
        assert not hasattr(module, name)
        assert name not in getattr(module, "__all__", ())

    def test_in_package_deprecations_fail_the_suite(self):
        """The pytest filter escalates a DeprecationWarning attributed to
        a ``repro`` module, and leaves third-party ones alone."""
        with pytest.raises(DeprecationWarning):
            warnings.warn_explicit(
                "probe", DeprecationWarning, "probe.py", 1,
                module="repro.core.planner",
            )
        with pytest.warns(DeprecationWarning):
            warnings.warn_explicit(
                "probe", DeprecationWarning, "probe.py", 1,
                module="thirdparty.lib",
            )
