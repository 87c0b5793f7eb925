"""Unit and integration tests for :class:`repro.options.ExecutionOptions`
and the canonical layering — session defaults ← ``options=`` bundle ←
explicit per-call keyword arguments — shared by every entry point.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro.engine import NULL, Column, Database
from repro.errors import InvalidArgumentError
from repro.options import (
    OPTION_FIELDS,
    ExecutionOptions,
    layer_options,
    validate_threads,
)


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a")],
        [(i, i % 3) for i in range(12)],
        primary_key="k",
    )
    return d


class TestBundle:
    def test_defaults_inherit_everything(self):
        opts = ExecutionOptions()
        assert all(getattr(opts, f) is None for f in OPTION_FIELDS)
        assert opts.describe() == "defaults"

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionOptions().threads = 4

    def test_merged_non_none_wins(self):
        base = ExecutionOptions(strategy="auto", threads=2, logic="3vl")
        over = ExecutionOptions(threads=8, backend="vector")
        merged = base.merged(over)
        assert merged == ExecutionOptions(
            strategy="auto", backend="vector", threads=8, logic="3vl"
        )

    def test_merged_none_is_identity(self):
        base = ExecutionOptions(threads=2)
        assert base.merged(None) is base
        assert base.merged(ExecutionOptions()) == base

    def test_merged_rejects_other_types(self):
        with pytest.raises(InvalidArgumentError, match="ExecutionOptions"):
            ExecutionOptions().merged({"threads": 4})

    def test_replace_updates_and_clears(self):
        opts = ExecutionOptions(threads=2, backend="vector")
        assert opts.replace(threads=8).threads == 8
        cleared = opts.replace(backend=None)
        assert cleared.backend is None
        assert cleared.threads == 2

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(InvalidArgumentError, match="workers"):
            ExecutionOptions().replace(workers=4)

    def test_describe_lists_non_none(self):
        text = ExecutionOptions(threads=4, logic="2vl").describe()
        assert text == "threads=4, logic='2vl'"

    def test_layer_options_precedence(self):
        base = ExecutionOptions(strategy="auto", threads=2)
        bundle = ExecutionOptions(threads=4, backend="vector")
        eff = layer_options(base, bundle, threads=8, logic="2vl")
        assert eff.threads == 8  # kwarg beats bundle beats base
        assert eff.backend == "vector"  # bundle beats base
        assert eff.strategy == "auto"  # base survives
        assert eff.logic == "2vl"

    def test_layer_options_without_base(self):
        eff = layer_options(None, None, threads=3)
        assert eff == ExecutionOptions(threads=3)


class TestSessionIntegration:
    SQL = "select r.k from r where r.a > 0"

    def test_session_bundle_sets_defaults(self, db):
        session = repro.connect(
            db, options=ExecutionOptions(strategy="nested-relational")
        )
        _, trace = session.prepare(self.SQL).trace()
        assert trace.roots[0].attrs["strategy"] == "nested-relational"

    def test_call_bundle_beats_session_bundle(self, db):
        session = repro.connect(
            db, options=ExecutionOptions(strategy="nested-relational")
        )
        _, trace = session.prepare(self.SQL).trace(
            options=ExecutionOptions(strategy="nested-iteration")
        )
        assert trace.roots[0].attrs["strategy"] == "nested-iteration"

    def test_kwarg_beats_call_bundle(self, db):
        session = repro.connect(db)
        _, trace = session.prepare(self.SQL).trace(
            strategy="nested-relational",
            options=ExecutionOptions(strategy="nested-iteration"),
        )
        assert trace.roots[0].attrs["strategy"] == "nested-relational"

    def test_backend_option_routes_execution(self, db):
        session = repro.connect(db, options=ExecutionOptions(backend="vector"))
        _, trace = session.prepare(self.SQL).trace()
        assert trace.roots[0].attrs["strategy"] == (
            "nested-relational-vectorized"
        )

    def test_logic_option_per_call(self, db):
        db.create_table("n", [Column("x")], [(1,), (NULL,)])
        sql = "select n.x from n where not (n.x = 0)"
        session = repro.connect(db)
        query = session.prepare(sql)
        # 3VL: NOT (NULL = 0) stays UNKNOWN, the NULL row is excluded
        assert len(query.execute()) == 1
        # 2VL: NULL = 0 is plain FALSE, so its negation admits the row
        two = query.execute(options=ExecutionOptions(logic="2vl"))
        assert len(two) == 2
        # the override is per-call: the session default still stands
        assert len(query.execute()) == 1

    def test_invalid_logic_rejected(self, db):
        session = repro.connect(db)
        with pytest.raises(InvalidArgumentError):
            session.prepare(self.SQL).execute(
                options=ExecutionOptions(logic="4vl")
            )

    def test_options_on_one_shot_execute(self, db):
        result = repro.connect(db).execute(
            self.SQL, options=ExecutionOptions(strategy="nested-iteration")
        )
        assert len(result) == 8

    def test_explain_honours_strategy_option(self, db):
        session = repro.connect(db)
        plan = session.prepare(self.SQL).explain(
            options=ExecutionOptions(strategy="nested-relational")
        )
        assert plan.chosen == "nested-relational"
        assert plan.est_rows is None  # not an auto request

    def test_verify_accepts_options(self, db):
        report = repro.connect(db).prepare(self.SQL).verify(
            options=ExecutionOptions(strategy="nested-relational")
        )
        assert report.acceptable


class TestThreadValidation:
    """``threads`` is validated once, in :func:`layer_options`, so every
    entry point rejects a bad value whatever the strategy or backend."""

    #: at SF 0.001 ``auto`` runs this on the row engine, which never
    #: read ``threads`` and so never validated it
    SQL = (
        "select n_name from nation where n_regionkey in "
        "(select r_regionkey from region where r_name = 'ASIA')"
    )

    def test_validate_threads_accepts_sane_values(self):
        assert validate_threads(None) is None
        assert validate_threads(1) == 1
        assert validate_threads("4") == 4

    @pytest.mark.parametrize("bad", [0, -3, "x", "", 2.5, True, False])
    def test_validate_threads_rejects(self, bad):
        with pytest.raises(InvalidArgumentError):
            validate_threads(bad)

    @pytest.mark.parametrize("bad", [0, -2, "many", True])
    def test_connect_rejects_bad_threads(self, tiny_tpch, bad):
        with pytest.raises(InvalidArgumentError) as err:
            repro.connect(tiny_tpch, threads=bad)
        assert "threads" in str(err.value)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "nested-relational", "threads": 0},
            {"backend": "row", "threads": 0},
            {"strategy": "nested-relational", "threads": "x"},
            {"threads": 0},
            {"strategy": "nested-iteration", "threads": -3},
        ],
        ids=["row-strategy", "row-backend", "non-numeric", "auto", "oracle"],
    )
    def test_per_call_threads_rejected_on_every_strategy(self, kwargs):
        db = repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))
        query = repro.connect(db).prepare(self.SQL)
        with pytest.raises(InvalidArgumentError):
            query.execute(**kwargs)
        with pytest.raises(InvalidArgumentError):
            query.trace(**kwargs)

    def test_explain_and_verify_reject_bad_threads(self, tiny_tpch):
        query = repro.connect(tiny_tpch).prepare(self.SQL)
        with pytest.raises(InvalidArgumentError):
            query.explain(options=ExecutionOptions(threads=0))
        with pytest.raises(InvalidArgumentError):
            query.verify(strategy="nested-relational", threads=0)

    def test_a_good_thread_count_changes_nothing(self, tiny_tpch):
        query = repro.connect(tiny_tpch).prepare(self.SQL)
        assert query.execute(threads=4) == query.execute()
