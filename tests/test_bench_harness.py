"""Unit tests for the benchmark harness itself (small scale)."""

import pytest

import repro
from repro.bench import (
    Experiment,
    block_sizes,
    default_db,
    intermediate_result_size,
    measure_strategy,
    run_point,
)
from repro.bench.harness import ProcessingProfile, processing_profile
from repro.tpch import query1, query2


@pytest.fixture(scope="module")
def db():
    return default_db(sf=0.001, seed=11)


def prepare(sql, db):
    """*sql* prepared the way :func:`run_point` prepares it."""
    return repro.connect(db, plan_cache=False).prepare(sql)


class TestMeasurement:
    def test_measure_strategy(self, db):
        sql = query1("1992-01-01", "1995-01-01")
        m = measure_strategy(prepare(sql, db), "nested-relational")
        assert m.seconds > 0
        assert m.result_rows >= 0
        assert m.metrics.get("rows_scanned", 0) > 0

    def test_run_point_collects_all_strategies(self, db):
        sql = query1("1992-01-01", "1995-01-01")
        point = run_point(sql, db, ["nested-relational", "system-a-native"])
        assert set(point.measurements) == {
            "nested-relational",
            "system-a-native",
        }
        sizes = point.block_sizes
        assert len(sizes) == 2 and all(s >= 0 for s in sizes)

    def test_strategies_in_one_point_agree_on_cardinality(self, db):
        sql = query2("all", 1, 40, 9000, 25)
        point = run_point(
            sql,
            db,
            ["nested-relational", "nested-relational-optimized",
             "nested-relational-bottomup", "system-a-native"],
        )
        cards = {m.result_rows for m in point.measurements.values()}
        assert len(cards) == 1


class TestIntermediateResult:
    def test_ir_at_least_outer_block(self, db):
        sql = query1("1992-01-01", "1995-01-01")
        prepared = prepare(sql, db)
        ir = intermediate_result_size(prepared)
        outer = block_sizes(prepared.query, db)[0]
        assert ir >= outer  # left outer join keeps every outer tuple

    def test_ir_for_flat_query(self, db):
        prepared = prepare("select o_orderkey from orders", db)
        assert intermediate_result_size(prepared) == len(db.relation("orders"))

    def test_ir_for_tree_query(self, db):
        sql = """
        select p_partkey, p_name from part
        where exists (select * from partsupp where ps_partkey = p_partkey)
          and p_retailprice > all (select ps_supplycost from partsupp ps2
                                   where ps2.ps_partkey = p_partkey)
        """
        prepared = prepare(sql, db)
        assert not prepared.query.is_linear
        assert intermediate_result_size(prepared) > 0


class TestExperimentFormatting:
    def test_format_table_metrics(self, db):
        exp = Experiment("X", "format test")
        sql = query1("1992-01-01", "1995-01-01")
        exp.points.append(run_point(sql, db, ["nested-relational"]))
        for metric in ("seconds", "cost", "rows"):
            text = exp.format_table(metric)
            assert "nested-relational" in text
            assert "X" in text

    def test_named_counter_column(self, db):
        exp = Experiment("X", "counter test")
        sql = query1("1992-01-01", "1995-01-01")
        exp.points.append(run_point(sql, db, ["system-a-native"]))
        text = exp.format_table("index_probes")
        assert "index_probes" in text


class TestProcessingProfile:
    def test_profile_fields(self, db):
        sql = query1("1992-01-01", "1995-01-01")
        profile = processing_profile(sql, db, repeats=1)
        assert profile.intermediate_rows > 0
        assert profile.original_seconds >= 0
        assert profile.optimized_seconds >= 0

    def test_ratio_property(self):
        p = ProcessingProfile("x", 10, original_seconds=0.2, optimized_seconds=0.1)
        assert p.ratio == pytest.approx(2.0)
        p0 = ProcessingProfile("x", 10, original_seconds=0.2, optimized_seconds=0.0)
        assert p0.ratio == float("inf")

    def test_rejects_tree_queries(self, db):
        sql = """
        select p_partkey, p_name from part
        where exists (select * from partsupp where ps_partkey = p_partkey)
          and p_size > all (select ps_availqty from partsupp ps2
                            where ps2.ps_partkey = p_partkey)
        """
        with pytest.raises(ValueError, match="linear"):
            processing_profile(sql, db, repeats=1)
