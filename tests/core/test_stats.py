"""Unit tests for the cardinality estimator (:mod:`repro.core.stats`).

Covers statistics collection (exact figures kept per table, ``obj``
columns), predicate selectivities, the per-linking-operator selectivity
rules (including the 3VL effect of NULLs on ``NOT IN``), and
:class:`PlanStats` propagation.
"""

from __future__ import annotations

import datetime

import pytest

import repro
from repro.core.blocks import AGG_OP, LinkSpec
from repro.core.stats import (
    DEFAULT_EQ_SEL,
    DEFAULT_RANGE_SEL,
    ColumnStats,
    PlanStats,
    block_resolver,
    collect_stats,
    link_selectivity,
    selectivity,
)
from repro.engine import NULL, Column, Database
from repro.engine.expressions import (
    And,
    Between,
    Col,
    Comparison,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)


@pytest.fixture()
def db():
    """20 rows of t(k, v, tag): v in 1..10 twice, tag NULL every 4th."""
    rows = [
        (i, (i % 10) + 1, NULL if i % 4 == 0 else f"g{i % 5}")
        for i in range(20)
    ]
    d = Database()
    d.create_table(
        "t",
        [Column("k", not_null=True), Column("v"), Column("tag")],
        rows,
        primary_key="k",
    )
    return d


def resolver(db):
    stats = collect_stats(db)
    table = stats.table("t")
    return lambda ref: table.column(ref.split(".")[-1])


class TestCollection:
    def test_row_count_and_exact_ndv(self, db):
        stats = collect_stats(db)
        t = stats.table("t")
        assert t.row_count == 20
        assert t.column("k").ndv == 20
        assert t.column("v").ndv == 10

    def test_null_fraction_and_extremes(self, db):
        t = collect_stats(db).table("t")
        tag = t.column("tag")
        assert tag.null_frac == pytest.approx(5 / 20)
        v = t.column("v")
        assert (v.min_value, v.max_value) == (1, 10)

    def test_figures_are_kept_on_the_table(self, db):
        relation = db.relation("t")
        assert relation._stats == [None, None, None]
        first = collect_stats(db).column("t", "v")
        assert relation._stats[1] is not None  # only the column read
        assert relation._stats[0] is None and relation._stats[2] is None
        figures = relation._stats[1]
        assert collect_stats(db).column("t", "v") == first
        assert relation._stats[1] is figures  # read once, kept
        db.create_table("u", [Column("x")], [(1,)])
        assert collect_stats(db).table("u").row_count == 1

    def test_an_edited_table_gets_fresh_figures(self, db):
        assert collect_stats(db).column("t", "v").max_value == 10
        db.mutate_table("t", rows=[(1, 99, "x")])
        v = collect_stats(db).column("t", "v")
        assert (v.ndv, v.min_value, v.max_value) == (1.0, 99, 99)
        assert collect_stats(db).table("t").row_count == 1

    def test_unknown_column_has_no_figures(self, db):
        assert collect_stats(db).column("t", "nope") is None
        assert collect_stats(db).column("nope", "v") is None

    def test_figures_depend_on_the_database_alone(self, db):
        def figures():
            stats = collect_stats(db)
            return stats, [stats.column("t", c) for c in ("k", "v", "tag")]

        before = figures()
        session = repro.connect(db)
        sql = "select k from t where v > 3 and tag is not null"
        session.execute(sql)
        session.prepare(sql).trace()
        assert figures() == before


def obj_table(values):
    """The figures of a one-column table holding *values*."""
    d = Database()
    d.create_table("o", [Column("x")], [(v,) for v in values])
    assert d.relation("o").stored_batch().columns[0].kind == "obj"
    return collect_stats(d).column("o", "x")


class TestObjectColumns:
    """``obj`` columns (mixed kinds, ints past int64) count distinct
    values under SQL grouping and order only what orders."""

    def test_grouping_equality(self):
        # 1 and 1.0 are one value, True is another: {1, 2, True}
        cs = obj_table([1, 1.0, 2, True, NULL])
        assert cs.ndv == 3.0
        assert cs.null_frac == pytest.approx(1 / 5)
        assert (cs.min_value, cs.max_value) == (1, 2)  # booleans skipped

    def test_ints_past_int64(self):
        cs = obj_table([2**70, 2**70 + 1, 2**70, 5])
        assert cs.ndv == 3.0
        assert (cs.min_value, cs.max_value) == (5, 2**70 + 1)

    def test_strings_mixed_with_ints_do_not_order(self):
        cs = obj_table(["a", 1, "b", 1])
        assert cs.ndv == 3.0
        assert (cs.min_value, cs.max_value) == (None, None)
        # unordered extremes fall back to the default range selectivity
        sel = selectivity(
            Comparison("<", Col("o.x"), Literal(2)), lambda ref: cs
        )
        assert sel == pytest.approx(DEFAULT_RANGE_SEL)

    def test_dates_order(self):
        late, early = datetime.date(2000, 1, 2), datetime.date(1999, 5, 5)
        cs = obj_table([late, NULL, early, late])
        assert cs.ndv == 2.0
        assert (cs.min_value, cs.max_value) == (early, late)


class TestPredicateSelectivity:
    def test_none_is_one(self, db):
        assert selectivity(None, resolver(db)) == 1.0

    def test_equality_is_one_over_ndv(self, db):
        sel = selectivity(Comparison("=", Col("t.v"), Literal(5)), resolver(db))
        assert sel == pytest.approx(1 / 10)

    def test_literal_on_the_left_normalizes(self, db):
        r = resolver(db)
        a = selectivity(Comparison("<", Col("t.v"), Literal(5)), r)
        b = selectivity(Comparison(">", Literal(5), Col("t.v")), r)
        assert a == pytest.approx(b)

    def test_range_interpolates_min_max(self, db):
        r = resolver(db)
        low = selectivity(Comparison("<", Col("t.v"), Literal(2)), r)
        high = selectivity(Comparison("<", Col("t.v"), Literal(9)), r)
        assert 0 < low < high < 1

    def test_is_null_uses_null_fraction(self, db):
        r = resolver(db)
        assert selectivity(IsNull(Col("t.tag")), r) == pytest.approx(0.25)
        assert selectivity(
            IsNull(Col("t.tag"), negated=True), r
        ) == pytest.approx(0.75)

    def test_conjunction_multiplies(self, db):
        r = resolver(db)
        eq = Comparison("=", Col("t.v"), Literal(5))
        null = IsNull(Col("t.tag"))
        assert selectivity(And(eq, null), r) == pytest.approx(0.1 * 0.25)

    def test_disjunction_inclusion_exclusion(self, db):
        r = resolver(db)
        eq = Comparison("=", Col("t.v"), Literal(5))
        null = IsNull(Col("t.tag"))
        expected = 0.1 + 0.25 - 0.1 * 0.25
        assert selectivity(Or(eq, null), r) == pytest.approx(expected)

    def test_negation_complements(self, db):
        r = resolver(db)
        assert selectivity(Not(IsNull(Col("t.tag"))), r) == pytest.approx(0.75)

    def test_between_combines_bounds(self, db):
        r = resolver(db)
        sel = selectivity(Between(Col("t.v"), Literal(3), Literal(7)), r)
        assert 0 < sel < 1

    def test_in_list_scales_equality(self, db):
        r = resolver(db)
        items = (Literal(1), Literal(2), Literal(3))
        sel = selectivity(InList(Col("t.v"), items), r)
        assert sel == pytest.approx(3 / 10)
        neg = selectivity(InList(Col("t.v"), items, negated=True), r)
        assert neg == pytest.approx(1.0 - 3 / 10)

    def test_column_to_column_equality_uses_larger_ndv(self, db):
        r = resolver(db)
        sel = selectivity(Comparison("=", Col("t.k"), Col("t.v")), r)
        assert sel == pytest.approx(1 / 20)

    def test_unresolvable_column_falls_back(self, db):
        r = resolver(db)
        sel = selectivity(Comparison("=", Col("t.missing"), Literal(1)), r)
        assert sel == DEFAULT_EQ_SEL

    def test_block_resolver_alias_first(self, db):
        query = repro.compile_sql("select a.k from t a where a.v > 3", db)
        resolve = block_resolver(query.root, collect_stats(db))
        assert resolve("a.v").ndv == 10
        assert resolve("v").ndv == 10
        assert resolve("zz.v") is None


class TestLinkSelectivity:
    def test_exists_is_smooth_nonempty_probability(self):
        link = LinkSpec("exists")
        assert link_selectivity(link, 3.0) == pytest.approx(0.75)
        assert link_selectivity(link, 0.0) == 0.0

    def test_not_exists_complements(self):
        link = LinkSpec("not_exists")
        assert link_selectivity(link, 3.0) == pytest.approx(0.25)
        assert link_selectivity(link, 0.0) == 1.0

    def test_in_matches_any_of_group(self):
        link = LinkSpec("in", outer_ref="r.a", theta="=", inner_ref="s.b")
        inner = ColumnStats(ndv=10.0)
        g = 2.0
        p_nonempty = g / (1 + g)
        expected = p_nonempty * (1.0 - 0.9**g)
        got = link_selectivity(link, g, inner=inner)
        assert got == pytest.approx(expected)

    def test_in_tracks_outer_null_fraction(self):
        link = LinkSpec("in", outer_ref="r.a", theta="=", inner_ref="s.b")
        inner = ColumnStats(ndv=10.0)
        clean = link_selectivity(link, 2.0, inner=inner)
        nully = link_selectivity(
            link, 2.0, outer=ColumnStats(null_frac=0.5), inner=inner
        )
        assert nully < clean

    def test_all_passes_empty_groups(self):
        link = LinkSpec("all", outer_ref="r.a", theta="=", inner_ref="s.b")
        assert link_selectivity(link, 0.0) == 1.0

    def test_all_requires_every_element(self):
        link = LinkSpec("all", outer_ref="r.a", theta="=", inner_ref="s.b")
        inner = ColumnStats(ndv=10.0)
        g = 3.0
        p_nonempty = g / (1 + g)
        expected = (1 - p_nonempty) + p_nonempty * 0.1**g
        assert link_selectivity(link, g, inner=inner) == pytest.approx(expected)

    def test_not_in_killed_by_inner_nulls(self):
        link = LinkSpec("not_in", outer_ref="r.a", theta="<>", inner_ref="s.b")
        clean = link_selectivity(link, 4.0, inner=ColumnStats(ndv=50.0))
        nully = link_selectivity(
            link, 4.0, inner=ColumnStats(ndv=50.0, null_frac=0.5)
        )
        # one NULL element makes NOT IN UNKNOWN in 3VL: far fewer rows pass
        assert nully < clean
        assert clean > 0.3

    def test_some_more_selective_than_exists(self):
        exists = LinkSpec("exists")
        some = LinkSpec("some", outer_ref="r.a", theta="=", inner_ref="s.b")
        inner = ColumnStats(ndv=100.0)
        g = 5.0
        assert link_selectivity(some, g, inner=inner) < link_selectivity(
            exists, g
        )

    def test_aggregate_links_use_defaults(self):
        eq = LinkSpec(
            AGG_OP, outer_ref="r.a", theta="=", agg_func="count_star"
        )
        rng = LinkSpec(
            AGG_OP, outer_ref="r.a", theta=">", agg_func="count_star"
        )
        assert link_selectivity(eq, 3.0) == DEFAULT_EQ_SEL
        assert link_selectivity(rng, 3.0) == DEFAULT_RANGE_SEL


LINKED_SQL = (
    "select r.k from r where exists (select * from s where s.rk = r.k)"
)


class TestPlanStats:
    @pytest.fixture()
    def linked(self):
        d = Database()
        d.create_table(
            "r",
            [Column("k", not_null=True), Column("a")],
            [(i, i % 4) for i in range(40)],
            primary_key="k",
        )
        d.create_table(
            "s",
            [Column("k", not_null=True), Column("rk"), Column("v")],
            [(i, i % 40, i % 7) for i in range(120)],
            primary_key="k",
        )
        return d, repro.compile_sql(LINKED_SQL, d)

    def test_block_rows_follow_base_and_predicates(self, linked):
        db, query = linked
        ps = PlanStats(query, collect_stats(db))
        root = query.root
        (child,) = root.children
        assert ps.base_rows[root.index] == 40.0
        assert ps.block_rows[child.index] == 120.0
        # correlation s.rk = r.k: 120 inner rows / ndv 40 = 3 per outer
        assert ps.level_rows[child.index] == pytest.approx(40.0 * 3.0)
        assert 0.0 < ps.link_sel[child.index] <= 1.0
        assert ps.out_rows <= ps.block_rows[root.index]

    def test_block_estimates_ignore_traced_runs(self, linked):
        db, query = linked

        def estimates():
            ps = PlanStats(query, collect_stats(db))
            return ps.block_rows, ps.level_rows, ps.link_sel, ps.out_rows

        before = estimates()
        prepared = repro.connect(db).prepare(LINKED_SQL)
        for _ in range(3):
            prepared.trace()
        assert estimates() == before
