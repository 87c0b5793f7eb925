"""Unit tests for block reduction and Algorithm 1's machinery."""

import pytest

import repro
from repro.core.blocks import Correlation, LinkSpec, NestedQuery, QueryBlock
from repro.core.compute import (
    NestedRelationalStrategy,
    _subtree_uncorrelated,
    set_predicate_for,
)
from repro.core.reduce import reduce_all, reduce_block, rid_name
from repro.engine import Column, Database, NULL
from repro.engine.expressions import cmp, conjoin, eq
from repro.errors import PlanError


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "emp",
        [Column("id", not_null=True), Column("dept"), Column("salary")],
        [(1, 10, 100), (2, 10, 200), (3, 20, 300), (4, NULL, 400)],
        primary_key="id",
    )
    d.create_table(
        "dept",
        [Column("id", not_null=True), Column("budget")],
        [(10, 1000), (20, 50), (30, 9999)],
        primary_key="id",
    )
    d.create_table(
        "bonus",
        [Column("emp_id"), Column("amount")],
        [(1, 5), (1, 7), (2, 11)],
    )
    return d


class TestReduceBlock:
    def test_applies_local_predicate(self, db):
        block = QueryBlock(
            tables={"emp": "emp"},
            local_predicate=cmp("emp.salary", ">", 150),
            select_refs=["emp.id"],
        )
        NestedQuery(block)
        reduced = reduce_block(block, db)
        assert len(reduced.relation) == 3

    def test_rid_column_added(self, db):
        block = QueryBlock(tables={"emp": "emp"}, select_refs=["emp.id"])
        NestedQuery(block)
        reduced = reduce_block(block, db)
        assert rid_name(block) in reduced.relation.schema.names
        rids = reduced.relation.column_values(reduced.rid_ref)
        assert rids == list(range(len(reduced.relation)))

    def test_multi_table_block_joins_on_equality(self, db):
        block = QueryBlock(
            tables={"emp": "emp", "dept": "dept"},
            local_predicate=eq("emp.dept", "dept.id"),
            select_refs=["emp.id"],
        )
        NestedQuery(block)
        reduced = reduce_block(block, db)
        assert len(reduced.relation) == 3  # NULL dept drops out
        assert "dept.budget" in reduced.relation.schema.names

    def test_multi_table_block_without_join_predicate_is_cross(self, db):
        block = QueryBlock(
            tables={"emp": "emp", "dept": "dept"},
            select_refs=["emp.id"],
        )
        NestedQuery(block)
        reduced = reduce_block(block, db)
        assert len(reduced.relation) == 4 * 3

    def test_multi_table_with_residual_theta(self, db):
        from repro.engine.expressions import Col, Comparison

        block = QueryBlock(
            tables={"emp": "emp", "dept": "dept"},
            local_predicate=Comparison(">", Col("dept.budget"), Col("emp.salary")),
            select_refs=["emp.id"],
        )
        NestedQuery(block)
        reduced = reduce_block(block, db)
        assert all(
            row[reduced.relation.schema.index_of("dept.budget")]
            > row[reduced.relation.schema.index_of("emp.salary")]
            for row in reduced.relation.rows
        )

    def test_reduce_all_keys_by_index(self, db):
        child = QueryBlock(
            tables={"bonus": "bonus"},
            link=LinkSpec("exists"),
            correlations=[Correlation("emp.id", "=", "bonus.emp_id")],
        )
        root = QueryBlock(
            tables={"emp": "emp"}, children=[child], select_refs=["emp.id"]
        )
        q = NestedQuery(root)
        reduced = reduce_all(q, db)
        assert set(reduced) == {1, 2}

    def test_local_predicate_referencing_foreign_table_rejected(self, db):
        block = QueryBlock(
            tables={"emp": "emp"},
            local_predicate=eq("emp.dept", "ghost.id"),
            select_refs=["emp.id"],
        )
        NestedQuery(block)
        with pytest.raises(PlanError, match="outside the block"):
            reduce_block(block, db)


class TestSetPredicateFor:
    def test_exists_maps_to_emptiness(self):
        assert set_predicate_for(LinkSpec("exists")).quantifier == "exists"

    def test_in_maps_to_eq_some(self):
        pred = set_predicate_for(LinkSpec("in", "a.x", "=", "b.y"))
        assert pred.quantifier == "some" and pred.theta == "="

    def test_not_in_maps_to_neq_all(self):
        pred = set_predicate_for(LinkSpec("not_in", "a.x", "<>", "b.y"))
        assert pred.quantifier == "all" and pred.theta == "<>"


class TestSubtreeCorrelationAnalysis:
    def test_self_contained_subtree(self):
        inner = QueryBlock(
            tables={"T": "T"},
            link=LinkSpec("exists"),
            correlations=[Correlation("S.I", "=", "T.L")],
        )
        child = QueryBlock(
            tables={"S": "S"}, link=LinkSpec("exists"), children=[inner]
        )
        assert _subtree_uncorrelated(child)

    def test_subtree_reaching_outside(self):
        inner = QueryBlock(
            tables={"T": "T"},
            link=LinkSpec("exists"),
            correlations=[Correlation("R.C", "=", "T.K")],
        )
        child = QueryBlock(
            tables={"S": "S"}, link=LinkSpec("exists"), children=[inner]
        )
        assert not _subtree_uncorrelated(child)


class TestUncorrelatedSubqueries:
    """Non-correlated subqueries: executed once, shared by every tuple."""

    SQL = """
    select emp.id from emp
    where emp.salary > all (select bonus.amount from bonus)
    """

    def test_virtual_cartesian_matches_oracle(self, db):
        prepared = repro.connect(db).prepare(self.SQL)
        q = prepared.query
        oracle = prepared.execute(strategy="nested-iteration")
        fast = NestedRelationalStrategy().execute(q, db)
        slow = NestedRelationalStrategy(
            rules={"strict-when-positive"}
        ).execute(q, db)
        assert fast == oracle
        assert slow == oracle

    def test_uncorrelated_exists_nonempty(self, db):
        sql = "select emp.id from emp where exists (select * from bonus)"
        prepared = repro.connect(db).prepare(sql)
        out = prepared.execute(strategy="nested-relational")
        assert len(out) == 4

    def test_uncorrelated_not_exists_with_empty_subquery(self, db):
        sql = (
            "select emp.id from emp where not exists "
            "(select * from bonus where bonus.amount > 1000)"
        )
        prepared = repro.connect(db).prepare(sql)
        out = prepared.execute(strategy="nested-relational")
        assert len(out) == 4

    def test_uncorrelated_in_with_nullable_inner(self, db):
        sql = "select emp.id from emp where emp.dept in (select dept.id from dept)"
        prepared = repro.connect(db).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration")
        out = prepared.execute(strategy="nested-relational")
        assert out == oracle
        assert len(out) == 3  # the NULL-dept emp is UNKNOWN, filtered

    def test_mixed_correlated_and_uncorrelated_children(self, db):
        sql = """
        select emp.id from emp
        where exists (select * from bonus where bonus.emp_id = emp.id)
          and emp.salary < all (select dept.budget from dept where dept.budget > 60)
        """
        prepared = repro.connect(db).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration")
        out = prepared.execute(strategy="nested-relational")
        assert out == oracle


class TestAlgorithmOnFlatQueries:
    def test_flat_query_reduces_to_selection(self, db):
        sql = "select emp.id from emp where emp.salary >= 200"
        prepared = repro.connect(db).prepare(sql)
        out = prepared.execute(strategy="nested-relational")
        assert sorted(out.rows) == [(2,), (3,), (4,)]

    def test_distinct_applied(self, db):
        sql = "select distinct bonus.emp_id from bonus"
        prepared = repro.connect(db).prepare(sql)
        out = prepared.execute(strategy="nested-relational")
        assert len(out) == 2


class TestNestImplementations:
    def test_hash_and_sorted_agree_on_nested_query(self, db):
        sql = """
        select emp.id from emp
        where emp.salary > all
          (select bonus.amount from bonus where bonus.emp_id = emp.id)
        """
        q = repro.compile_sql(sql, db)
        a = NestedRelationalStrategy(nest_impl="hash").execute(q, db)
        b = NestedRelationalStrategy(nest_impl="sorted").execute(q, db)
        assert a == b

    def test_unknown_nest_impl(self):
        with pytest.raises(PlanError):
            NestedRelationalStrategy(nest_impl="btree")
