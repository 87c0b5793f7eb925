"""Unit tests for the Section 4.2 optimizations — rule presets over the
one Algorithm 1 driver, addressed by registry name."""

import pytest

import repro
from repro.core.compute import (
    BOTTOM_UP,
    DEFAULT_RULES,
    FUSE_LINKS,
    NEST_PUSHDOWN,
    SEMIJOIN_POSITIVE,
    NestedRelationalStrategy,
)
from ..conftest import run_traced
from repro.engine import Column, Database, NULL
from repro.errors import PlanError
from repro.strategies import make


OPTIMIZED = "nested-relational-optimized"
BOTTOMUP = "nested-relational-bottomup"
POSITIVE_REWRITE = "nested-relational-positive-rewrite"


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [(1, 5, 1), (2, 3, 2), (3, NULL, 1), (4, 9, 9)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("v")],
        [(1, 1, 4), (2, 1, NULL), (3, 2, 10), (4, 9, 1), (5, 2, 2)],
        primary_key="k",
    )
    d.create_table(
        "t",
        [Column("k", not_null=True), Column("sk"), Column("w")],
        [(1, 1, 1), (2, 3, 2), (3, 3, NULL), (4, 5, 4)],
        primary_key="k",
    )
    return d


ONE_LEVEL_QUERIES = [
    "select r.k from r where r.a > all (select s.v from s where s.rk = r.b)",
    "select r.k from r where r.a < some (select s.v from s where s.rk = r.b)",
    "select r.k from r where r.a in (select s.v from s where s.rk = r.b)",
    "select r.k from r where r.a not in (select s.v from s where s.rk = r.b)",
    "select r.k from r where exists (select * from s where s.rk = r.b)",
    "select r.k from r where not exists (select * from s where s.rk = r.b)",
]

TWO_LEVEL_LINEAR = [
    """select r.k from r where r.a > all
       (select s.v from s where s.rk = r.b and not exists
          (select * from t where t.sk = s.k))""",
    """select r.k from r where r.a <= some
       (select s.v from s where s.rk = r.b and exists
          (select * from t where t.sk = s.k and t.w < 3))""",
    """select r.k from r where r.k not in
       (select s.rk from s where s.rk = r.k and s.v > all
          (select t.w from t where t.sk = s.k))""",
]


class TestSinglePassPipeline:
    @pytest.mark.parametrize("sql", ONE_LEVEL_QUERIES + TWO_LEVEL_LINEAR)
    def test_matches_oracle(self, db, sql):
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        oracle = prepared.execute(strategy="nested-iteration")
        out = make(OPTIMIZED).execute(q, db)
        assert out == oracle

    @pytest.mark.parametrize("sql", ONE_LEVEL_QUERIES + TWO_LEVEL_LINEAR)
    def test_matches_original_algorithm(self, db, sql):
        q = repro.compile_sql(sql, db)
        original = NestedRelationalStrategy().execute(q, db)
        optimized = make(OPTIMIZED).execute(q, db)
        assert optimized == original

    def test_flat_query(self, db):
        q = repro.compile_sql("select r.k from r where r.a > 4", db)
        out = make(OPTIMIZED).execute(q, db)
        assert sorted(out.rows) == [(1,), (4,)]

    def test_tree_query_falls_back(self, db):
        sql = """
        select r.k from r
        where exists (select * from s where s.rk = r.k)
          and not exists (select * from t where t.sk = r.k)
        """
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        assert q.is_tree
        oracle = prepared.execute(strategy="nested-iteration")
        out = make(OPTIMIZED).execute(q, db)
        assert out == oracle

    def test_single_pass_does_one_sort(self, db):
        """The fused pipeline sorts the joined relation exactly once."""
        from repro.engine.metrics import collect

        sql = TWO_LEVEL_LINEAR[0]
        q = repro.compile_sql(sql, db)
        with collect() as m:
            make(OPTIMIZED).execute(q, db)
        joined_size = m.get("rows_sorted")
        with collect() as m2:
            NestedRelationalStrategy(nest_impl="sorted").execute(q, db)
        # original approach re-sorts per nesting level (two levels here)
        assert m2.get("rows_sorted") > joined_size


class TestBottomUpLinear:
    LINEAR_SQL = """
    select r.k from r where r.a > all
      (select s.v from s where s.rk = r.b and not exists
         (select * from t where t.sk = s.k))
    """

    def test_applicable_only_to_linear_correlation(self, db):
        q = repro.compile_sql(self.LINEAR_SQL, db)
        assert make(BOTTOMUP).applicable(q, db) is None

    def test_not_applicable_to_grandparent_correlation(self, db):
        sql = """
        select r.k from r where r.a > all
          (select s.v from s where s.rk = r.b and not exists
             (select * from t where t.sk = r.k))
        """
        q = repro.compile_sql(sql, db)
        assert make(BOTTOMUP).applicable(q, db) is not None
        with pytest.raises(PlanError):
            make(BOTTOMUP).execute(q, db)

    @pytest.mark.parametrize("sql", ONE_LEVEL_QUERIES + TWO_LEVEL_LINEAR[:2])
    def test_matches_oracle(self, db, sql):
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        if make(BOTTOMUP).applicable(q, db) is not None:
            pytest.skip("not linearly correlated")
        oracle = prepared.execute(strategy="nested-iteration")
        out = make(BOTTOMUP).execute(q, db)
        assert out == oracle

    def test_pushdown_on_and_off_agree(self, db):
        q = repro.compile_sql(self.LINEAR_SQL, db)
        with_pd = NestedRelationalStrategy(
            rules=DEFAULT_RULES | {BOTTOM_UP, NEST_PUSHDOWN}
        ).execute(q, db)
        without_pd = NestedRelationalStrategy(
            rules=DEFAULT_RULES | {BOTTOM_UP}
        ).execute(q, db)
        assert with_pd == without_pd

    def test_uncorrelated_inner_block(self, db):
        sql = "select r.k from r where r.a > all (select s.v from s)"
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        oracle = prepared.execute(strategy="nested-iteration")
        assert make(BOTTOMUP).execute(q, db) == oracle


class TestPositiveRewrite:
    POSITIVE = [
        "select r.k from r where r.a in (select s.v from s where s.rk = r.b)",
        "select r.k from r where exists (select * from s where s.rk = r.b)",
        """select r.k from r where r.a >= some
           (select s.v from s where s.rk = r.b and exists
              (select * from t where t.sk = s.k))""",
    ]

    @pytest.mark.parametrize("sql", POSITIVE)
    def test_matches_oracle(self, db, sql):
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        assert make(POSITIVE_REWRITE).applicable(q, db) is None
        oracle = prepared.execute(strategy="nested-iteration")
        assert make(POSITIVE_REWRITE).execute(q, db) == oracle

    def test_rejects_negative_links(self, db):
        q = repro.compile_sql(
            "select r.k from r where r.a not in (select s.v from s where s.rk = r.b)",
            db,
        )
        assert make(POSITIVE_REWRITE).applicable(q, db) is not None
        with pytest.raises(PlanError):
            make(POSITIVE_REWRITE).execute(q, db)

    def test_guard_names_the_failing_condition(self, db):
        """All-positive but correlated past the adjacent block: the
        refusal is about adjacency, not about link polarity."""
        sql = """
        select r.k from r where exists
          (select * from s where s.rk = r.k and exists
             (select * from t where t.sk = s.k and t.w = r.b))
        """
        q = repro.compile_sql(sql, db)
        reason = make(POSITIVE_REWRITE).applicable(q, db)
        assert "adjacent correlations" in reason
        assert "positive" not in reason.replace("positive rewrite", "")
        with pytest.raises(PlanError, match="adjacent correlations"):
            make(POSITIVE_REWRITE).execute(q, db)

    def test_equivalence_claim_of_section_4_2_5(self, db):
        """σ_{AθSOME{B}}(υ(R ⟕_C S)) ≡ R ⋉_{C ∧ AθB} S — the rewrite and
        the nested relational pipeline must produce identical results."""
        sql = "select r.k from r where r.a = some (select s.v from s where s.rk = r.b)"
        q = repro.compile_sql(sql, db)
        nested_way = NestedRelationalStrategy().execute(q, db)
        join_way = make(POSITIVE_REWRITE).execute(q, db)
        assert nested_way == join_way


class TestRuleSets:
    """The presets are rule sets over one driver: what holds for the
    driver holds for each of them."""

    @pytest.mark.parametrize(
        "preset,operator",
        [
            ("nested-relational", "not in"),
            ("nested-relational-sorted", "not in"),
            (OPTIMIZED, "not in"),
            (BOTTOMUP, "not in"),
            (POSITIVE_REWRITE, "in"),
        ],
    )
    def test_non_correlated_subquery_is_executed_once(self, db, preset, operator):
        """No preset builds the Cartesian product of a non-correlated
        subquery with its outer block (two of them used to)."""
        sql = f"select r.k from r where r.a {operator} (select s.v from s where s.v > 3)"
        q = repro.compile_sql(sql, db)
        result, trace = run_traced(q, db, preset)
        names = [span.name for span in trace.spans()]
        assert "uncorrelated-link" in names
        assert "OuterCrossJoin" not in names
        oracle = repro.connect(db).execute(sql, strategy="nested-iteration")
        assert result == oracle

    @pytest.mark.parametrize("preset", [OPTIMIZED, BOTTOMUP])
    def test_non_correlated_block_inside_a_chain(self, db, preset):
        sql = """
        select r.k from r where r.a > all
          (select s.v from s where s.rk = r.b and s.v not in
             (select t.w from t where t.w < 3))
        """
        q = repro.compile_sql(sql, db)
        result, trace = run_traced(q, db, preset)
        assert trace.find("uncorrelated-link") and not trace.find("OuterCrossJoin")
        assert result == repro.connect(db).execute(sql, strategy="nested-iteration")

    def test_unknown_rule(self):
        with pytest.raises(PlanError, match="unknown rule"):
            NestedRelationalStrategy(rules={"virtual-cartesian", "telepathy"})

    @pytest.mark.parametrize(
        "rules",
        [{NEST_PUSHDOWN}, {SEMIJOIN_POSITIVE}, {FUSE_LINKS, BOTTOM_UP}],
    )
    def test_unusable_combinations(self, rules):
        with pytest.raises(PlanError):
            NestedRelationalStrategy(rules=rules)

    def test_backend_without_the_operator(self):
        from repro.engine.vector.strategy import (
            VectorizedNestedRelationalStrategy,
        )

        with pytest.raises(PlanError, match="fused_link"):
            VectorizedNestedRelationalStrategy(rules={FUSE_LINKS})
