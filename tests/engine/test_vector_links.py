"""Vector links agree with the row engine on ordered strings and big ints.

Two places where the columnar linking selection used to leave the row
engine's semantics:

* An uncorrelated ordered θ SOME / ALL compares the outer value with the
  member set's extreme.  numpy has no maximum/minimum loop for ``U``
  arrays, so over strings the extreme is taken in code-point order, as
  ``sql_compare`` orders strings — instead of a numpy exception escaping
  ``execute``.
* An aggregate link over ``i8`` members computes ``sum`` / ``min`` /
  ``max`` / ``avg`` exactly as the row engine's Python ints do, past
  float64's 2**53 and up to int64's edges (and beyond, for sums); and an
  int compared with a float is compared exactly, as Python compares
  them, not in float64.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.engine import NULL, Column, Database
from repro.options import ExecutionOptions

ROW, VECTOR = "nested-relational", "nested-relational-vectorized"
LOGICS = ("3vl", "2vl")


def both_engines(db, sql, logic="3vl"):
    """``(row rows, vector rows)``, each sorted."""
    session = repro.connect(db)
    options = ExecutionOptions(logic=logic)
    return tuple(
        session.execute(sql, strategy=s, options=options).sorted().rows
        for s in (ROW, VECTOR)
    )


# --------------------------------------------------------------------- #
# Uncorrelated ordered SOME / ALL
# --------------------------------------------------------------------- #

#: member groups: 1 plain, 2 with a NULL member, 3 only NULL, 4 a single
#: member; ``m.g = 0`` selects the empty member set
MEMBER_GROUPS = (1, 2, 3, 4, 0)


@pytest.fixture(scope="module")
def link_db() -> Database:
    db = Database()
    db.create_table(
        "o",
        [Column("ok"), Column("s"), Column("i"), Column("f")],
        [
            (1, "b", 3, 2.5),
            (2, "B", -7, -1.0),
            (3, "é", 2 ** 62, 7.25),
            (4, NULL, NULL, NULL),
            (5, "ab", 0, 0.0),
            (6, "", 9, 3.0),
            (7, "zz", 5, 9.5),
        ],
    )
    db.create_table(
        "m",
        [Column("g"), Column("s"), Column("i"), Column("f")],
        [
            (1, "b", 3, 2.5),
            (1, "ab", -7, 0.0),
            (1, "zz", 5, 9.5),
            (2, "b", 3, 2.5),
            (2, NULL, NULL, NULL),
            (2, "a", 1, 1.0),
            (3, NULL, NULL, NULL),
            (4, "é", 2 ** 62, 7.25),
        ],
    )
    return db


class TestUncorrelatedOrderedLinks:
    @pytest.mark.parametrize("column", ["s", "i", "f"])
    @pytest.mark.parametrize("theta", ["<", "<=", ">", ">="])
    @pytest.mark.parametrize("quantifier", ["some", "all"])
    @pytest.mark.parametrize("logic", LOGICS)
    def test_vector_equals_row(
        self, link_db, column, theta, quantifier, logic
    ):
        for g in MEMBER_GROUPS:
            sql = (
                f"select o.ok from o where o.{column} {theta} {quantifier} "
                f"(select m.{column} from m where m.g = {g})"
            )
            row, vec = both_engines(link_db, sql, logic)
            assert vec == row, sql

    def test_the_link_is_the_uncorrelated_kernel(self, link_db):
        prepared = repro.connect(link_db).prepare(
            "select o.ok from o where o.s < all "
            "(select m.s from m where m.g = 1)"
        )
        result, trace = prepared.trace(strategy=VECTOR)
        assert trace.find("vec-uncorrelated-link")
        # "ab" is the smallest member in code-point order: "" < "B" < "ab"
        assert sorted(result.rows) == [(2,), (6,)]

    def test_string_extremes_on_tpch(self, micro_tpch):
        for op in ("< all", "> some", "<= some", ">= all"):
            sql = (
                f"select o_orderkey from orders where o_orderdate {op} "
                "(select l_shipdate from lineitem where l_quantity = 5)"
            )
            row, vec = both_engines(micro_tpch, sql)
            assert vec == row, sql


# --------------------------------------------------------------------- #
# Aggregate links over int64 members
# --------------------------------------------------------------------- #

BIG = 2 ** 53


def big_int_db(r_rows, s_rows) -> Database:
    db = Database()
    db.create_table("r", [Column("a"), Column("k")], r_rows)
    db.create_table("s", [Column("b"), Column("k2")], s_rows)
    return db


def agg_link(func: str, theta: str = "=") -> str:
    return (
        f"select r.a from r where r.a {theta} "
        f"(select {func}(s.b) from s where s.k2 = r.k)"
    )


class TestIntAggregateLinks:
    @pytest.fixture(scope="class")
    def db(self) -> Database:
        return big_int_db(
            [(BIG + 3, 1), (BIG + 1, 2)],
            [(BIG + 1, 1), (2, 1), (BIG + 1, 2), (BIG + 5, 2)],
        )

    def test_sum_past_float_precision(self, db):
        row, vec = both_engines(db, agg_link("sum"))
        assert row == vec == [(BIG + 3,)]

    def test_min_past_float_precision(self, db):
        row, vec = both_engines(db, agg_link("min"))
        assert row == vec == [(BIG + 1,)]

    def test_avg_compares_exactly_past_float_precision(self):
        # float64(2**53 + 1) == 2.0**53: compared in float64, an outer
        # 2**53 + 1 would equal an average of 2**53
        db = big_int_db([(BIG + 1, 1), (BIG, 1)], [(BIG, 1)])
        for theta, want in (
            ("=", [(BIG,)]), (">", [(BIG + 1,)]), ("<>", [(BIG + 1,)])
        ):
            row, vec = both_engines(db, agg_link("avg", theta))
            assert row == vec == want, theta

    def test_int_filter_against_a_float_literal_is_exact(self, db):
        row, vec = both_engines(
            db, "select r.a from r where r.a > 9007199254740992.0"
        )
        assert row == vec == [(BIG + 1,), (BIG + 3,)]

    def test_sum_past_int64_is_exact(self):
        top = 2 ** 63 - 1
        db = big_int_db([(2 * top, 1), (top, 2)], [(top, 1), (top, 1), (top, 2)])
        row, vec = both_engines(db, agg_link("sum"))
        assert row == vec == [(top,), (2 * top,)]


#: int64 edges, float64's precision edge, and small values
EDGE_INTS = [
    -(2 ** 63), -(2 ** 63) + 1, -BIG - 1, -BIG, -3, -1, 0, 1, 2, 5,
    BIG - 1, BIG, BIG + 1, BIG + 3, 2 ** 62, 2 ** 63 - 2, 2 ** 63 - 1,
]


@st.composite
def agg_cases(draw):
    values = st.one_of(st.sampled_from(EDGE_INTS), st.just(NULL))
    s_rows = draw(
        st.lists(st.tuples(values, st.integers(0, 3)), max_size=8)
    )
    # outer values at and next to the groups' aggregates, so equality
    # can hit and an average's float64 rounding shows
    candidates = list(EDGE_INTS)
    for k in range(4):
        members = [b for b, k2 in s_rows if k2 == k and b is not NULL]
        if members:
            mean = int(sum(members) / len(members))
            candidates += [
                v
                for v in (
                    sum(members), min(members), max(members),
                    mean - 1, mean, mean + 1,
                )
                if -(2 ** 63) <= v < 2 ** 63
            ]
    r_rows = draw(
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from(candidates), st.just(NULL)),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return r_rows, s_rows


class TestIntAggregateProperty:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        agg_cases(),
        st.sampled_from(["sum", "min", "max", "avg"]),
        st.sampled_from(["=", "<", ">=", "<>"]),
    )
    def test_vector_equals_row(self, case, func, theta):
        r_rows, s_rows = case
        db = big_int_db(r_rows, s_rows)
        row, vec = both_engines(db, agg_link(func, theta))
        assert vec == row

