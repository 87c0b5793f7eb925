"""Integration tests: every strategy against the tuple-iteration oracle
on the paper's TPC-H workloads, with and without NULLs.

This is the repository's strongest correctness statement: the nested
relational approach (all variants) and the System A emulation agree with
direct SQL semantics on every paper query, on data containing NULLs.
"""

import pytest

import repro
from repro.baselines import BooleanAggregateStrategy, CountRewriteStrategy
from repro.tpch import query1, query2, query3

LINEAR_STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-relational-bottomup",
    "nested-relational-vectorized",
    "system-a-native",
    "auto",
]

TREE_CORRELATED_STRATEGIES = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-relational-vectorized",
    "system-a-native",
    "auto",
]


def assert_all_agree(db, sql, strategies):
    prepared = repro.connect(db).prepare(sql)
    oracle = prepared.execute(strategy="nested-iteration").sorted()
    for strategy in strategies:
        result = prepared.execute(strategy=strategy).sorted()
        assert result == oracle, f"{strategy} disagrees with the oracle"
    return oracle


class TestQuery1:
    """Query 1 is bound by the quadratic ``nested-iteration`` oracle, so
    tier-1 runs it on the 150-order ``micro_tpch*`` instances (every
    window still non-empty); the same assertions at the ``tiny_tpch*``
    size are the ``full_scale`` variants CI selects."""

    WINDOWS = [("1992-01-01", "1992-09-01"), ("1993-01-01", "1994-06-01")]

    def _clean_data(self, db, window):
        out = assert_all_agree(db, query1(*window), LINEAR_STRATEGIES)
        assert len(out) > 0

    def _null_data(self, db):
        out = assert_all_agree(
            db, query1("1992-01-01", "1995-01-01"), LINEAR_STRATEGIES
        )
        assert len(out) > 0  # non-trivial workload

    def _not_null_constraint_data(self, db):
        out = assert_all_agree(
            db, query1("1992-01-01", "1995-01-01"),
            LINEAR_STRATEGIES + ["classical-unnesting"],
        )
        assert len(out) > 0

    @pytest.mark.parametrize("window", WINDOWS)
    def test_clean_data(self, micro_tpch, window):
        self._clean_data(micro_tpch, window)

    def test_null_data(self, micro_tpch_nulls):
        self._null_data(micro_tpch_nulls)

    def test_not_null_constraint_data(self, micro_tpch_not_null):
        self._not_null_constraint_data(micro_tpch_not_null)

    @pytest.mark.full_scale
    @pytest.mark.parametrize("window", WINDOWS)
    def test_clean_data_at_sf_0_002(self, tiny_tpch, window):
        self._clean_data(tiny_tpch, window)

    @pytest.mark.full_scale
    def test_null_data_at_sf_0_002(self, tiny_tpch_nulls):
        self._null_data(tiny_tpch_nulls)

    @pytest.mark.full_scale
    def test_not_null_constraint_data_at_sf_0_002(self, tiny_tpch_not_null):
        self._not_null_constraint_data(tiny_tpch_not_null)


class TestQuery2:
    @pytest.mark.parametrize("quantifier", ["any", "all"])
    def test_clean_data(self, tiny_tpch, quantifier):
        assert_all_agree(
            tiny_tpch, query2(quantifier, 1, 30, 6000, 25), LINEAR_STRATEGIES
        )

    @pytest.mark.parametrize("quantifier", ["any", "all"])
    def test_null_data(self, tiny_tpch_nulls, quantifier):
        assert_all_agree(
            tiny_tpch_nulls, query2(quantifier, 1, 30, 6000, 25), LINEAR_STRATEGIES
        )

    def test_count_and_boolean_baselines(self, tiny_tpch_nulls):
        sql = query2("all", 1, 30, 6000, 25)
        prepared = repro.connect(tiny_tpch_nulls).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration")
        q = prepared.query
        assert CountRewriteStrategy().execute(q, tiny_tpch_nulls) == oracle
        assert BooleanAggregateStrategy().execute(q, tiny_tpch_nulls) == oracle


class TestQuery3:
    """Three levels under the quadratic oracle: tier-1 runs on the
    ``micro_tpch*`` instances (20 parts, 80 partsupps, ~600 lineitems —
    eight of the nine shapes still return rows); the ``tiny_tpch*`` size
    is the ``full_scale`` variant, as for :class:`TestQuery1`."""

    SHAPES = [("all", "exists"), ("all", "not exists"), ("any", "exists")]

    def _clean_data(self, db, quantifier, existential, variant):
        assert_all_agree(
            db,
            query3(quantifier, existential, variant, 1, 30, 6000, 25),
            TREE_CORRELATED_STRATEGIES,
        )

    def _null_data_negative_ops(self, db, variant):
        assert_all_agree(
            db,
            query3("all", "not exists", variant, 1, 30, 6000, 25),
            TREE_CORRELATED_STRATEGIES,
        )

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    @pytest.mark.parametrize("quantifier,existential", SHAPES)
    def test_clean_data(self, micro_tpch, quantifier, existential, variant):
        self._clean_data(micro_tpch, quantifier, existential, variant)

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_null_data_negative_ops(self, micro_tpch_nulls, variant):
        self._null_data_negative_ops(micro_tpch_nulls, variant)

    @pytest.mark.full_scale
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    @pytest.mark.parametrize("quantifier,existential", SHAPES)
    def test_clean_data_at_sf_0_002(
        self, tiny_tpch, quantifier, existential, variant
    ):
        self._clean_data(tiny_tpch, quantifier, existential, variant)

    @pytest.mark.full_scale
    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_null_data_negative_ops_at_sf_0_002(self, tiny_tpch_nulls, variant):
        self._null_data_negative_ops(tiny_tpch_nulls, variant)


class TestResultShapes:
    def test_query1_result_columns(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        out = session.execute(query1("1992-01-01", "1995-01-01"))
        assert out.schema.names == ("orders.o_orderkey", "orders.o_orderpriority")

    def test_query2_result_columns(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        out = session.execute(query2("all", 1, 30, 6000, 25))
        assert out.schema.names == ("part.p_partkey", "part.p_name")
