"""``auto`` is a rule, not a price list.

``strategy="auto"`` runs ``nested-relational-vectorized``, or
``nested-relational-optimized`` when the request pins ``backend="row"``
— whatever the query, the data, their size or the memory budget.  The
decision reads no statistics: only EXPLAIN's estimate does.
"""

from __future__ import annotations

import sys

import pytest

import repro
from repro.core import optimizer, stats
from repro.core.optimizer import choose, resolve
from repro.fuzz.generator import FuzzConfig
from repro.fuzz.runner import generate_case
from repro.options import ExecutionOptions
from repro.tpch import TpchConfig, generate

from .test_explain_golden import PAPER_QUERIES
from .test_explain_presets_golden import SHAPES
from .test_paper_example import QUERY_Q
from .test_trace_invariants import LINKING_MATRIX

#: what ``auto`` runs per requested backend
RULE = {
    None: "nested-relational-vectorized",
    "vector": "nested-relational-vectorized",
    "row": "nested-relational-optimized",
}
BUDGETS = (None, 2, 0.05)


@pytest.fixture(scope="module")
def sf0001():
    return generate(TpchConfig(scale_factor=0.001, seed=42))


def fuzz_inputs(max_rows, cases=200):
    config = FuzzConfig(seed=2005, max_rows=max_rows)
    for iteration in range(cases):
        case = generate_case(config, iteration)
        db = case.db_spec.build()
        yield case.sql, repro.compile_sql(case.sql, db), db


def assert_rule(query, db, label):
    for backend, expected in RULE.items():
        assert resolve(query, db, "auto", backend).chosen == expected, label
        for budget in BUDGETS:
            decision = choose(
                query, db, backend=backend, memory_limit_mb=budget
            )
            assert decision.chosen == expected, (label, backend, budget)
            assert decision.impl.name == expected


class TestTheRule:
    @pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
    def test_figure_queries(self, sf0001, stem, sql):
        assert_rule(repro.compile_sql(sql, sf0001), sf0001, stem)

    def test_query_q(self, paper_db):
        assert_rule(repro.compile_sql(QUERY_Q, paper_db), paper_db, "Q")

    @pytest.mark.parametrize("stem", sorted(SHAPES))
    def test_shapes(self, paper_db, stem):
        assert_rule(repro.compile_sql(SHAPES[stem], paper_db), paper_db, stem)

    @pytest.mark.parametrize("sql", LINKING_MATRIX)
    def test_linking_matrix(self, paper_db, sql):
        assert_rule(repro.compile_sql(sql, paper_db), paper_db, sql)

    @pytest.mark.parametrize("max_rows", [8, 64])
    def test_fuzz_cases(self, max_rows):
        for sql, query, db in fuzz_inputs(max_rows):
            assert_rule(query, db, sql)

    @pytest.mark.parametrize("backend", sorted(RULE, key=str))
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_sessions_run_the_rule(self, paper_db, tmp_path, backend, budget):
        """What EXPLAIN names is what the traced root span ran, under
        every backend and budget."""
        options = ExecutionOptions(
            backend=backend, memory_limit_mb=budget, spill_dir=str(tmp_path)
        )
        prepared = repro.connect(paper_db).prepare(QUERY_Q)
        assert prepared.explain(options=options).chosen == RULE[backend]
        _result, trace = prepared.trace(options=options)
        assert trace.root.attrs["strategy"] == RULE[backend]


class TestNoStatisticsOnTheExecutionPath:
    @pytest.fixture()
    def stats_forbidden(self, monkeypatch):
        """Every binding of ``collect_stats`` and ``PlanStats.__init__``
        raises; returns the number of ``choose`` calls so far."""

        class StatisticsRead(Exception):
            pass

        def boom(*_args, **_kwargs):
            raise StatisticsRead("statistics read")

        original = stats.collect_stats
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and (
                getattr(module, "collect_stats", None) is original
            ):
                monkeypatch.setattr(module, "collect_stats", boom)
        monkeypatch.setattr(stats.PlanStats, "__init__", boom)
        calls = []
        real_choose = optimizer.choose
        monkeypatch.setattr(
            optimizer, "choose",
            lambda *args, **kwargs: (
                calls.append(kwargs), real_choose(*args, **kwargs)
            )[1],
        )
        return StatisticsRead, calls

    @pytest.mark.parametrize("backend", [None, "row"])
    def test_execute_and_trace_read_no_statistics(
        self, sf0001, stats_forbidden, backend
    ):
        forbidden, calls = stats_forbidden
        session = repro.connect(sf0001)
        prepared = session.prepare(PAPER_QUERIES[1].values[1])
        result = prepared.execute(backend=backend)
        for _ in range(2):
            traced, trace = prepared.trace(backend=backend)
            assert traced == result
            assert trace.root.attrs["strategy"] == RULE[backend]
        assert session.feedback.epoch > 0  # the traces were harvested
        # one resolution: the traced runs, and the observations they
        # recorded, leave the memoized decision alone
        assert len(calls) == 1
        assert session.cache_stats.strategy_hits == 2
        # EXPLAIN is the one reader of statistics
        with pytest.raises(forbidden):
            prepared.explain(options=ExecutionOptions(backend=backend))
