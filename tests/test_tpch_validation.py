"""Tests for the TPC-H validator — and validation of the generator."""

import pytest

import repro
from repro.engine import Column, Database, NULL
from repro.tpch import TpchConfig, generate
from repro.tpch.validation import assert_valid, validate


class TestGeneratorPassesValidation:
    def test_default_config(self):
        db = generate(TpchConfig(scale_factor=0.002, seed=17, build_indexes=False))
        assert validate(db) == []

    def test_not_null_config(self):
        db = generate(
            TpchConfig(scale_factor=0.001, seed=17, price_not_null=True,
                       build_indexes=False)
        )
        assert_valid(db)

    def test_null_injected_config(self):
        db = generate(
            TpchConfig(scale_factor=0.002, seed=17, inject_null_fraction=0.1,
                       build_indexes=False)
        )
        assert validate(db, expected_null_fraction=0.1) == []

    @pytest.mark.parametrize("sf", [0.0005, 0.001, 0.005])
    def test_across_scale_factors(self, sf):
        db = generate(TpchConfig(scale_factor=sf, seed=1, build_indexes=False))
        assert validate(db) == []


class TestValidatorCatchesCorruption:
    def corrupt(self, name, mutate):
        """Validate after *mutate* edited table *name* (through the
        catalog's one write path)."""
        db = generate(TpchConfig(scale_factor=0.001, seed=17, build_indexes=False))
        db.mutate_table(name, mutator=mutate)
        return validate(db)

    def test_duplicate_pk(self):
        def mutate(table):
            rel = table.relation
            rel.rows.append(rel.rows[0])

        issues = self.corrupt("orders", mutate)
        assert any("duplicate keys" in i for i in issues)

    def test_null_pk(self):
        def mutate(table):
            rel = table.relation
            rel.rows[0] = (NULL,) + rel.rows[0][1:]

        issues = self.corrupt("part", mutate)
        assert any("NULL key" in i for i in issues)

    def test_dangling_fk(self):
        def mutate(table):
            rel = table.relation
            pos = rel.schema.index_of("l_orderkey")
            row = list(rel.rows[0])
            row[pos] = 10**9
            rel.rows[0] = tuple(row)

        issues = self.corrupt("lineitem", mutate)
        assert any("not in orders.o_orderkey" in i for i in issues)

    def test_domain_violation(self):
        def mutate(table):
            rel = table.relation
            pos = rel.schema.index_of("p_size")
            row = list(rel.rows[0])
            row[pos] = 999
            rel.rows[0] = tuple(row)

        issues = self.corrupt("part", mutate)
        assert any("outside [1, 50]" in i for i in issues)

    def test_date_ordering_violation(self):
        def mutate(table):
            rel = table.relation
            ship = rel.schema.index_of("l_shipdate")
            receipt = rel.schema.index_of("l_receiptdate")
            row = list(rel.rows[0])
            row[ship], row[receipt] = row[receipt], row[ship]
            rel.rows[0] = tuple(row)

        issues = self.corrupt("lineitem", mutate)
        assert any("ship >= receipt" in i for i in issues)

    def test_null_fraction_drift(self):
        db = generate(TpchConfig(scale_factor=0.001, seed=17, build_indexes=False))
        issues = validate(db, expected_null_fraction=0.5)
        assert any("NULL fraction" in i for i in issues)

    def test_assert_valid_raises_with_details(self):
        db = generate(TpchConfig(scale_factor=0.001, seed=17, build_indexes=False))
        db.mutate_table(
            "orders",
            mutator=lambda table: table.relation.rows.append(
                table.relation.rows[0]
            ),
        )
        with pytest.raises(AssertionError, match="duplicate keys"):
            assert_valid(db)
