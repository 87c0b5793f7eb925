"""Unit tests for the TPC-H substrate."""

import pytest

import repro
from repro.engine.types import is_null
from repro.tpch import (
    BASE_ROWS,
    TpchConfig,
    generate,
    pick_availqty,
    pick_date_window,
    pick_size_window,
    rows_at,
)


@pytest.fixture(scope="module")
def db():
    return generate(TpchConfig(scale_factor=0.002, seed=99))


class TestGenerator:
    def test_deterministic(self):
        a = generate(TpchConfig(scale_factor=0.001, seed=1, build_indexes=False))
        b = generate(TpchConfig(scale_factor=0.001, seed=1, build_indexes=False))
        assert a.relation("orders").rows == b.relation("orders").rows
        assert a.relation("lineitem").rows == b.relation("lineitem").rows

    def test_seed_changes_data(self):
        a = generate(TpchConfig(scale_factor=0.001, seed=1, build_indexes=False))
        b = generate(TpchConfig(scale_factor=0.001, seed=2, build_indexes=False))
        assert a.relation("orders").rows != b.relation("orders").rows

    def test_row_counts_scale(self, db):
        sf = 0.002
        assert len(db.relation("orders")) == int(BASE_ROWS["orders"] * sf)
        assert len(db.relation("part")) == int(BASE_ROWS["part"] * sf)
        assert len(db.relation("partsupp")) == 4 * len(db.relation("part"))
        # lineitem averages 4 lines per order
        n_orders = len(db.relation("orders"))
        assert 1 * n_orders <= len(db.relation("lineitem")) <= 7 * n_orders

    def test_rows_at_helper(self):
        assert rows_at(1.0, "orders") == BASE_ROWS["orders"]
        assert rows_at(0.5, "nation") == BASE_ROWS["nation"]  # never scales
        assert rows_at(1e-9, "supplier") == 1  # floor of 1

    def test_all_eight_tables(self, db):
        for table in ("region", "nation", "supplier", "customer",
                      "part", "partsupp", "orders", "lineitem"):
            assert db.has_table(table)

    def test_foreign_keys_resolve(self, db):
        n_part = len(db.relation("part"))
        assert all(
            1 <= v <= n_part for v in db.relation("partsupp").column_values("ps_partkey")
        )
        n_orders = len(db.relation("orders"))
        assert all(
            1 <= v <= n_orders
            for v in db.relation("lineitem").column_values("l_orderkey")
        )

    def test_dates_ordered_iso(self, db):
        for row in db.relation("lineitem").rows[:200]:
            ship = row[db.relation("lineitem").schema.index_of("l_shipdate")]
            receipt = row[db.relation("lineitem").schema.index_of("l_receiptdate")]
            assert ship < receipt  # ISO strings compare chronologically


class TestConstraints:
    def test_price_nullable_by_default(self, db):
        assert not db.table("lineitem").not_null("l_extendedprice")
        assert not db.table("partsupp").not_null("ps_supplycost")

    def test_price_not_null_flag(self):
        d = generate(
            TpchConfig(scale_factor=0.001, seed=1, price_not_null=True,
                       build_indexes=False)
        )
        assert d.table("lineitem").not_null("l_extendedprice")
        assert d.table("partsupp").not_null("ps_supplycost")

    def test_no_actual_nulls_by_default(self, db):
        assert not any(
            is_null(v)
            for v in db.relation("lineitem").column_values("l_extendedprice")
        )

    def test_inject_null_fraction(self):
        d = generate(
            TpchConfig(scale_factor=0.002, seed=1, inject_null_fraction=0.2,
                       build_indexes=False)
        )
        values = d.relation("lineitem").column_values("l_extendedprice")
        frac = sum(1 for v in values if is_null(v)) / len(values)
        assert 0.1 < frac < 0.3


class TestIndexes:
    def test_paper_indexes_built(self, db):
        li = db.table("lineitem")
        assert li.hash_index_on(["l_orderkey"]) is not None
        assert li.hash_index_on(["l_partkey"]) is not None
        assert li.hash_index_on(["l_suppkey"]) is not None
        assert li.hash_index_on(["l_partkey", "l_suppkey"]) is not None
        ps = db.table("partsupp")
        assert ps.hash_index_on(["ps_partkey"]) is not None
        assert ps.hash_index_on(["ps_partkey", "ps_suppkey"]) is not None

    def test_pk_indexes(self, db):
        assert db.table("orders").hash_index_on(["o_orderkey"]) is not None
        assert db.table("part").hash_index_on(["p_partkey"]) is not None


class TestConstantPickers:
    def test_date_window_hits_target(self, db):
        lo, hi = pick_date_window(db, 100)
        n = sum(
            1
            for v in db.relation("orders").column_values("o_orderdate")
            if lo <= v < hi
        )
        assert 80 <= n <= 120

    def test_size_window_monotone(self, db):
        lo1, hi1 = pick_size_window(db, 50)
        lo2, hi2 = pick_size_window(db, 200)
        assert lo1 == lo2 == 1
        assert hi2 >= hi1

    def test_availqty_cutoff(self, db):
        y = pick_availqty(db, 300)
        n = sum(
            1
            for v in db.relation("partsupp").column_values("ps_availqty")
            if v < y
        )
        assert 250 <= n <= 350


class TestConfig:
    def test_kwargs_override(self):
        d = generate(TpchConfig(scale_factor=0.001), scale_factor=0.002,
                     build_indexes=False)
        assert len(d.relation("orders")) == int(BASE_ROWS["orders"] * 0.002)

    def test_unknown_kwarg(self):
        with pytest.raises(TypeError):
            generate(TpchConfig(), giga_mode=True)
