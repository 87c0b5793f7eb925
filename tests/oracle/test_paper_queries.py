"""Acceptance gate: the six paper queries (Figures 4-9) agree with
SQLite and DuckDB for every always-applicable strategy, on row and
vector backends.

This is the PR's headline claim made executable: the strategies the
paper proposes produce exactly the rows a real SQL engine produces on
the paper's own workload.  An engine that is not installed is skipped
(DuckDB is optional; CI's ``oracle`` job installs it in its duckdb leg).
"""

from __future__ import annotations

import pytest

from repro.fuzz import ALWAYS_STRATEGIES
from repro.oracle import cross_check, engine_available, make_adapter
from repro.tpch import paper_query_suite

SF_STRATEGIES = ("nested-iteration",) + tuple(ALWAYS_STRATEGIES)
ENGINES = ("sqlite", "duckdb")


@pytest.fixture(scope="module")
def suite(tiny_tpch):
    return paper_query_suite(tiny_tpch)


@pytest.fixture(scope="module")
def adapter_for(tiny_tpch):
    """``adapter_for(engine)``: *engine* loaded with ``tiny_tpch`` once
    per module, or a skip when it is not installed."""
    opened = {}

    def adapter_for(engine):
        if engine not in opened:
            if not engine_available(engine):
                pytest.skip(f"{engine} is not installed")
            opened[engine] = make_adapter(engine, tiny_tpch)
        return opened[engine]

    yield adapter_for
    for adapter in opened.values():
        adapter.close()


def test_suite_covers_all_six_figures(suite):
    assert [name for name, _ in suite] == [
        "fig4_q1", "fig5_q2a", "fig6_q2b", "fig7_q3a", "fig8_q3b", "fig9_q3c",
    ]


@pytest.mark.parametrize(
    ("engine", "index"),
    [
        # the SQLite cases keep the bare figure index as their id
        pytest.param(
            engine, index,
            id=str(index) if engine == "sqlite" else f"{engine}-{index}",
        )
        for engine in ENGINES
        for index in range(6)
    ],
)
def test_paper_query_agrees_for_every_strategy(
    tiny_tpch, suite, adapter_for, engine, index
):
    name, sql = suite[index]
    reports = cross_check(
        tiny_tpch, sql, engine=engine,
        strategies=SF_STRATEGIES, adapter=adapter_for(engine),
    )
    for report in reports:
        assert report.acceptable, f"{name}:\n{report.describe()}"
        assert report.ok, f"{name}: unexpected registered divergence"


def test_paper_query_vector_backend_agrees(tiny_tpch, suite, adapter_for):
    name, sql = suite[0]
    (report,) = cross_check(
        tiny_tpch, sql, engine="sqlite",
        strategies=("nested-relational-vectorized",),
        backend="vector", adapter=adapter_for("sqlite"),
    )
    assert report.ok, f"{name}:\n{report.describe()}"


def test_paper_query_nulls_injected_agrees(tiny_tpch_nulls):
    """The NULL-injected variant — where classical rewrites break — must
    still match SQLite for the paper's strategies."""
    suite = paper_query_suite(tiny_tpch_nulls)
    with make_adapter("sqlite", tiny_tpch_nulls) as adapter:
        for name, sql in suite:
            reports = cross_check(
                tiny_tpch_nulls, sql, engine="sqlite",
                strategies=("nested-iteration", "nested-relational", "auto"),
                adapter=adapter,
            )
            for report in reports:
                assert report.ok, f"{name}:\n{report.describe()}"
