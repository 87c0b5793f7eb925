"""Unit tests for indexes, the catalog, and cost instrumentation."""

import pytest

from repro.engine.catalog import Database
from repro.engine.index import HashIndex
from repro.engine.metrics import Metrics, collect, current_metrics
from repro.engine.operators import filter_relation
from repro.engine.expressions import cmp
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import NULL
from repro.errors import CatalogError


def rel():
    return Relation(
        Schema.of("k", "v", table="t"),
        [(1, "a"), (1, "b"), (2, "c"), (NULL, "d"), (5, "e")],
    )


class TestHashIndex:
    def test_probe(self):
        idx = HashIndex(rel(), ["t.k"])
        assert len(idx.probe([1])) == 2
        assert idx.probe([9]) == []

    def test_null_keys_not_indexed(self):
        idx = HashIndex(rel(), ["t.k"])
        assert idx.probe([NULL]) == []

    def test_composite_key(self):
        idx = HashIndex(rel(), ["t.k", "t.v"])
        assert len(idx.probe([1, "a"])) == 1
        assert idx.probe([1, "zzz"]) == []


class TestDatabase:
    def make(self):
        db = Database()
        db.create_table(
            "t", [Column("k", not_null=True), Column("v")], rel().rows, primary_key="k"
        )
        return db

    def test_create_and_lookup(self):
        db = self.make()
        assert db.has_table("t")
        assert len(db.relation("t")) == 5
        assert db.table("t").primary_key == "k"

    def test_columns_qualified_by_table_name(self):
        db = self.make()
        assert db.relation("t").schema.names == ("t.k", "t.v")

    def test_duplicate_table(self):
        db = self.make()
        with pytest.raises(CatalogError):
            db.create_table("t", [Column("x")], [])

    def test_unknown_table(self):
        with pytest.raises(CatalogError):
            Database().table("missing")

    def test_unknown_pk(self):
        with pytest.raises(CatalogError):
            Database().create_table("x", [Column("a")], [], primary_key="zzz")

    def test_drop(self):
        db = self.make()
        db.drop_table("t")
        assert not db.has_table("t")

    def test_index_creation_idempotent(self):
        db = self.make()
        first = db.create_hash_index("t", ["k"])
        second = db.create_hash_index("t", ["k"])
        assert first is second

    def test_covering_index_prefers_widest(self):
        db = self.make()
        db.create_hash_index("t", ["k"])
        db.create_hash_index("t", ["k", "v"])
        best = db.table("t").any_hash_index_covering(["k", "v"])
        assert best is not None
        assert best[1] == ("k", "v")

    def test_covering_index_subset_only(self):
        db = self.make()
        db.create_hash_index("t", ["k", "v"])
        assert db.table("t").any_hash_index_covering(["k"]) is None

    def test_not_null_flag(self):
        db = self.make()
        assert db.table("t").not_null("k")
        assert not db.table("t").not_null("v")

    def test_summary_mentions_tables(self):
        assert "t(" in self.make().summary()


class TestMetrics:
    def test_collect_scopes(self):
        with collect() as m:
            current_metrics().add("x", 3)
        assert m.get("x") == 3
        assert current_metrics().get("x") == 0 or current_metrics() is not m

    def test_nested_scopes_isolated(self):
        with collect() as outer:
            current_metrics().add("a")
            with collect() as inner:
                current_metrics().add("a", 5)
            assert inner.get("a") == 5
        assert outer.get("a") == 1

    def test_operators_charge_metrics(self):
        r = rel()
        with collect() as m:
            filter_relation(r, cmp("t.k", "=", 1))
        assert m.get("rows_scanned") == 5
        assert m.get("rows_out") == 2
        assert m.get("predicate_evals") == 5

    def test_index_probe_charged(self):
        idx = HashIndex(rel(), ["t.k"])
        with collect() as m:
            idx.probe([1])
        assert m.get("index_probes") == 1
        assert m.get("index_rows_fetched") == 2


class TestMetricsInvariants:
    """The structural invariants the fuzzer checks on every case: no
    counter ever goes negative, and the planner charges ``rows_produced``
    exactly once with the result cardinality."""

    def test_clean_metrics_have_no_violations(self):
        assert Metrics({"rows_scanned": 3}).invariant_violations() == []

    def test_negative_counter_reported(self):
        bad = Metrics({"rows_out": -1, "rows_scanned": 2})
        violations = bad.invariant_violations()
        assert len(violations) == 1
        assert "rows_out" in violations[0]

    def test_rows_produced_mismatch_reported(self):
        m = Metrics({"rows_produced": 4})
        assert m.invariant_violations(result_cardinality=4) == []
        violations = m.invariant_violations(result_cardinality=2)
        assert violations and "rows_produced" in violations[0]

    def test_planner_charges_rows_produced(self):
        import repro

        db = Database()
        db.create_table(
            "t", [Column("k", not_null=True), Column("v")], rel().rows,
            primary_key="k",
        )
        prepared = repro.connect(db).prepare("select t.k from t where t.k > 1")
        with collect() as m:
            result = prepared.execute(strategy="nested-relational")
        assert m.get("rows_produced") == len(result)
        assert m.invariant_violations(result_cardinality=len(result)) == []

    def test_invariants_hold_on_fuzzed_strategies(self):
        """Every strategy execution over a handful of generated cases
        keeps all counters non-negative and rows_produced consistent —
        the same check ``repro fuzz`` applies per strategy run."""
        import repro
        from repro.fuzz import DEFAULT_STRATEGIES, FuzzConfig, generate_case
        from repro.core.optimizer import strategy_applicable
        from repro.fuzz.runner import GUARDED_STRATEGIES
        from repro.strategies import make as make_strategy

        config = FuzzConfig(iterations=6, seed=20, max_depth=2)
        for i in range(config.iterations):
            case = generate_case(config, i)
            db = case.db_spec.build()
            prepared = repro.connect(db).prepare(case.sql)
            query = prepared.query
            for name in ("nested-iteration",) + DEFAULT_STRATEGIES:
                if name in GUARDED_STRATEGIES and not strategy_applicable(
                    make_strategy(name), query, db
                ):
                    continue
                with collect() as m:
                    result = prepared.execute(strategy=name)
                assert m.invariant_violations(
                    result_cardinality=len(result)
                ) == [], (name, case.sql)
