"""Unit tests for semantic analysis (AST -> NestedQuery)."""

import pytest

import repro
from repro.engine import Column, Database, NULL
from repro.errors import AnalysisError
from repro.sql.analyzer import compile_sql


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "emp",
        [Column("id", not_null=True), Column("dept"), Column("salary")],
        [(1, 10, 100)],
        primary_key="id",
    )
    d.create_table(
        "dept",
        [Column("id", not_null=True), Column("budget")],
        [(10, 1000)],
        primary_key="id",
    )
    return d


class TestResolution:
    def test_bare_names_qualified(self, db):
        q = compile_sql("select id from emp", db)
        assert q.root.select_refs == ["emp.id"]

    def test_ambiguous_bare_name(self, db):
        with pytest.raises(AnalysisError, match="ambiguous"):
            compile_sql("select id from emp, dept", db)

    def test_unknown_table(self, db):
        with pytest.raises(AnalysisError, match="unknown table"):
            compile_sql("select x from ghost", db)

    def test_unknown_column(self, db):
        with pytest.raises(AnalysisError, match="unresolved|no column"):
            compile_sql("select wages from emp", db)

    def test_alias_resolution(self, db):
        q = compile_sql("select e.id from emp e", db)
        assert q.root.select_refs == ["e.id"]
        assert q.root.tables == {"e": "emp"}

    def test_table_name_resolution_under_alias(self, db):
        # referencing by base table name when aliased is accepted
        q = compile_sql("select emp.id from emp", db)
        assert q.root.select_refs == ["emp.id"]

    def test_star_expansion(self, db):
        q = compile_sql("select * from dept", db)
        assert q.root.select_refs == ["dept.id", "dept.budget"]

    def test_repeated_table_gets_fresh_alias(self, db):
        sql = """
        select emp.id from emp
        where exists (select * from emp e2 where e2.id = emp.id)
        """
        q = compile_sql(sql, db)
        aliases = [a for b in q.blocks for a in b.tables]
        assert len(set(aliases)) == len(aliases)

    def test_same_table_twice_without_alias_renamed(self, db):
        sql = """
        select emp.id from emp
        where emp.salary in (select emp.salary from emp)
        """
        q = compile_sql(sql, db)
        child = q.root.children[0]
        assert list(child.tables.values()) == ["emp"]
        assert list(child.tables.keys()) != ["emp"]  # renamed, e.g. emp_2


class TestClassification:
    def test_local_predicate(self, db):
        q = compile_sql("select id from emp where salary > 50 and dept = 10", db)
        assert q.root.local_predicate is not None
        assert q.root.correlations == []
        assert q.root.children == []

    def test_correlation_extracted(self, db):
        sql = """
        select id from emp
        where exists (select * from dept where dept.id = emp.dept)
        """
        q = compile_sql(sql, db)
        child = q.root.children[0]
        assert len(child.correlations) == 1
        corr = child.correlations[0]
        assert corr.outer_ref == "emp.dept"
        assert corr.inner_ref == "dept.id"
        assert corr.op == "="

    def test_correlation_orientation_flipped(self, db):
        """``emp.salary < dept.budget`` written either way must orient the
        outer attribute on the left with the operator flipped."""
        sql_a = """
        select id from emp
        where exists (select * from dept where emp.salary < dept.budget)
        """
        sql_b = """
        select id from emp
        where exists (select * from dept where dept.budget > emp.salary)
        """
        ca = compile_sql(sql_a, db).root.children[0].correlations[0]
        cb = compile_sql(sql_b, db).root.children[0].correlations[0]
        assert (ca.outer_ref, ca.op, ca.inner_ref) == (cb.outer_ref, cb.op, cb.inner_ref)
        assert ca.outer_ref == "emp.salary" and ca.op == "<"

    def test_linking_specs(self, db):
        sql = "select id from emp where salary in (select budget from dept)"
        q = compile_sql(sql, db)
        link = q.root.children[0].link
        assert link.operator == "in"
        assert link.outer_ref == "emp.salary"
        assert link.inner_ref == "dept.budget"

    def test_quantified_link(self, db):
        sql = "select id from emp where salary >= all (select budget from dept)"
        link = compile_sql(sql, db).root.children[0].link
        assert link.operator == "all" and link.theta == ">="

    def test_exists_has_no_linked_attr(self, db):
        sql = "select id from emp where not exists (select * from dept)"
        link = compile_sql(sql, db).root.children[0].link
        assert link.operator == "not_exists"
        assert link.inner_ref is None


class TestRejections:
    def test_subquery_under_or(self, db):
        # subqueries under OR now lower into marked links + a residual
        sql = """
        select id from emp
        where salary > 1 or exists (select * from dept)
        """
        query = compile_sql(sql, db)
        assert query.has_disjunction
        (child,) = query.root.children
        assert child.link.mark is not None

    def test_not_over_subquery(self, db):
        # NOT over a subquery predicate lowers into a negated mark
        sql = "select id from emp where not (salary in (select budget from dept))"
        query = compile_sql(sql, db)
        assert query.has_disjunction
        (child,) = query.root.children
        assert child.link.mark is not None

    def test_multi_column_subquery_select(self, db):
        sql = "select id from emp where salary in (select id, budget from dept)"
        with pytest.raises(AnalysisError, match="exactly one column"):
            compile_sql(sql, db)

    def test_correlated_select_item(self, db):
        sql = """
        select id from emp
        where exists (select emp.id from dept where dept.id = emp.dept)
        """
        with pytest.raises(AnalysisError, match="enclosing"):
            compile_sql(sql, db)

    def test_non_simple_correlated_predicate(self, db):
        sql = """
        select id from emp
        where exists (select * from dept where dept.budget > emp.salary + 1)
        """
        with pytest.raises(AnalysisError, match="simple"):
            compile_sql(sql, db)

    def test_linking_attr_must_be_column(self, db):
        sql = "select id from emp where salary + 1 in (select budget from dept)"
        with pytest.raises(AnalysisError, match="plain column"):
            compile_sql(sql, db)


class TestEndToEnd:
    def test_simple_selection(self, db):
        out = repro.connect(db).execute("select id from emp where salary > 50")
        assert out.rows == [(1,)]

    def test_value_exprs_in_local_predicates(self, db):
        out = repro.connect(db).execute("select id from emp where salary + 10 > 105")
        assert len(out) == 1

    def test_between_and_inlist(self, db):
        out = repro.connect(db).execute("select id from emp where salary between 50 and 150 and dept in (10, 20)")
        assert len(out) == 1

    def test_is_null_predicate(self, db):
        db.create_table(
            "x", [Column("k", not_null=True), Column("v")], [(1, NULL), (2, 5)],
            primary_key="k",
        )
        out = repro.connect(db).execute("select k from x where v is null")
        assert out.rows == [(1,)]
