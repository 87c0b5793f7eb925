"""String comparisons by order key equal numpy's compare and the row engine.

The vector engine compares two ``str`` vectors through their memoized
order keys (:attr:`~repro.engine.vector.column.Vector.order_key`): each
row's code points narrowed to bytes, zero-padded to whole ``uint64``
words, compared word by word.  Its definition is the numpy ``U`` compare
it replaced, kept here as reference code (:func:`ref_compare`), and the
row engine's Python string order above both.  The masks must agree
exactly, under 3VL and 2VL, on:

* ASCII, Latin-1 and code points above 255 (which get no key and keep
  the numpy compare), embedded NULs and empty strings;
* ``U1`` to ``U20`` on either side, so keys of different word counts
  meet, and NULL slots with arbitrary fills;
* ``Col θ Col``, ``Col θ 'lit'`` and ``'lit' θ Col`` for all six
  operators, plus ``BETWEEN`` and ``IN`` lists.

Whole queries are judged against the row engine, also with their joins
and nests spilled to disk.

numpy ``U`` arrays drop trailing NULs, so a value ending in ``"\\x00"``
takes the exact ``obj`` layout instead: the vector engine answers such
queries as the row engine does, and the column store refuses the column.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro
from repro.engine import NULL, Column, Database
from repro.engine.colstore import StoreWriter
from repro.engine.expressions import Between, Col, Comparison, InList, Literal
from repro.engine.governor import governed
from repro.engine.logic import logic_mode, two_valued
from repro.engine.schema import Schema
from repro.engine.vector import Batch, Vector
from repro.engine.vector.column import KIND_OBJ, KIND_STR
from repro.engine.vector.exprs import compare_vectors, eval_truth
from repro.errors import CatalogError, TypeError_
from repro.options import ExecutionOptions

from .test_spill_partitions import PARTITIONS, forced_spill

OPS = ("=", "<>", "<", "<=", ">", ">=")
LOGICS = ("3vl", "2vl")
ROW, VECTOR = "nested-relational", "nested-relational-vectorized"

# --------------------------------------------------------------------- #
# Reference definition: numpy's ``U`` compare
# --------------------------------------------------------------------- #

_CMP = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def ref_compare(op: str, a: Vector, b: Vector):
    """The ``(true, false)`` masks of the numpy compare of two ``str``
    vectors, as the vector engine built them before order keys."""
    both = a.valid & b.valid
    result = _CMP[op](a.data, b.data)
    t = both & result
    if two_valued():
        return t, ~t
    return t, both & ~result


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #

#: ASCII, NUL, Latin-1 and code points above 255 (which disable the key)
ALPHABET = ["a", "b", "z", "A", " ", "0", "9", "\x00", "\x7f", "\x80", "é",
            "ÿ", "Ā", "€", "\U0001f600"]
#: shared prefixes, so rows often tie on a whole first word and are
#: ordered by a later one (or by a prefix's end)
PREFIXES = ["", "a", "aaaaaaaa", "aaaaaaa\x00", "1995-03-1", "abcdefghijklmnop"]


def strings(alphabet) -> st.SearchStrategy:
    """Up to 20 characters over *alphabet*, often after a shared prefix;
    never ending in NUL (stored ``str`` values do not, they take ``obj``)."""
    return st.builds(
        lambda prefix, rest: (prefix + rest)[:20].rstrip("\x00"),
        st.sampled_from(PREFIXES),
        st.text(alphabet=st.sampled_from(alphabet), max_size=12),
    )


texts = strings(ALPHABET)
#: code points ≤ 255 only: every vector drawn from these has a key
latin1 = strings(["a", "b", "\x00", "é", "ÿ", "A"])
any_text = st.one_of(texts, latin1)


@st.composite
def str_vectors(draw, n: int, values=None):
    """A ``str`` vector of *n* rows at a drawn width ``U1``..``U20``
    (at least its longest value), NULL slots holding arbitrary text."""
    if values is None:
        values = draw(st.sampled_from([texts, latin1]))
    data = [draw(values) for _ in range(n)]
    valid = np.array(
        [draw(st.booleans()) or draw(st.booleans()) for _ in range(n)],
        dtype=bool,
    )
    width = draw(st.integers(max([1] + [len(s) for s in data]), 20))
    return Vector(KIND_STR, np.array(data, dtype=f"U{width}"), valid)


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(0, 12))
    alphabet = draw(st.sampled_from([texts, latin1]))
    return draw(str_vectors(n, alphabet)), draw(str_vectors(n, alphabet))


def masks_equal(got, want) -> bool:
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def batch_of(**columns: Vector) -> Batch:
    n = len(next(iter(columns.values())))
    schema = Schema(tuple(Column(name, table="r") for name in columns))
    return Batch(schema, list(columns.values()), n)


# --------------------------------------------------------------------- #
# The key compare equals the numpy compare
# --------------------------------------------------------------------- #


class TestKeyCompareEqualsNumpy:
    @settings(max_examples=300, deadline=None)
    @given(vector_pairs(), st.sampled_from(OPS), st.sampled_from(LOGICS))
    def test_col_col(self, pair, op, logic):
        a, b = pair
        with logic_mode(logic):
            assert masks_equal(compare_vectors(op, a, b), ref_compare(op, a, b))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12).flatmap(str_vectors),
        any_text,
        st.sampled_from(OPS),
        st.sampled_from(LOGICS),
    )
    def test_col_literal_both_sides(self, a, lit, op, logic):
        batch = batch_of(a=a)
        spread = Vector.from_scalar(lit, len(a))
        with logic_mode(logic):
            got = eval_truth(Comparison(op, Col("r.a"), Literal(lit)), batch)
            assert masks_equal(got, ref_compare(op, a, spread))
            got = eval_truth(Comparison(op, Literal(lit), Col("r.a")), batch)
            assert masks_equal(got, ref_compare(op, spread, a))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12).flatmap(str_vectors), any_text, any_text,
        st.sampled_from(LOGICS),
    )
    def test_between_literal_bounds(self, a, lo, hi, logic):
        batch = batch_of(a=a)
        n = len(a)
        with logic_mode(logic):
            got = eval_truth(Between(Col("r.a"), Literal(lo), Literal(hi)), batch)
            t1, f1 = ref_compare(">=", a, Vector.from_scalar(lo, n))
            t2, f2 = ref_compare("<=", a, Vector.from_scalar(hi, n))
            assert masks_equal(got, (t1 & t2, f1 | f2))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 12).flatmap(str_vectors),
        st.lists(any_text, min_size=1, max_size=3),
        st.booleans(),
        st.sampled_from(LOGICS),
    )
    def test_in_list_literals(self, a, items, negated, logic):
        batch = batch_of(a=a)
        expr = InList(Col("r.a"), tuple(Literal(v) for v in items), negated)
        with logic_mode(logic):
            t = np.zeros(len(a), dtype=bool)
            f = np.ones(len(a), dtype=bool)
            for v in items:
                ti, fi = ref_compare("=", a, Vector.from_scalar(v, len(a)))
                t, f = t | ti, f & fi
            want = (f, t) if negated else (t, f)
            assert masks_equal(eval_truth(expr, batch), want)

    @settings(max_examples=200, deadline=None)
    @given(vector_pairs())
    def test_keys_order_rows_as_python_does(self, pair):
        a, b = pair
        ka, kb = a.order_key, b.order_key
        assume(ka is not None and kb is not None)
        x, y = a.data.tolist(), b.data.tolist()
        for op in OPS:
            t, _f = compare_vectors(op, a, b)
            want = [_CMP[op](x[i], y[i]) for i in range(len(x))]
            assert (t == (np.array(want, dtype=bool) & a.valid & b.valid)).all()

    def test_which_vectors_get_a_key(self):
        assert Vector.from_values(["ab", "é", "", NULL]).order_key is not None
        assert Vector.from_values(["ab", "€"]).order_key is None
        assert Vector.from_values([1, 2]).order_key is None
        key = Vector.from_values(["2024-01-31"]).order_key  # U10: 2 words
        assert key.shape == (2, 1) and key.dtype == np.uint64

    def test_the_key_is_kept(self):
        v = Vector.from_values(["b", "a"])
        assert v.order_key is v.order_key

    def test_keyed_and_unkeyed_operands_compare_by_numpy(self):
        a = Vector.from_values(["a", "€", "b"])
        b = Vector.from_values(["b", "a", "b"])
        assert a.order_key is None and b.order_key is not None
        for op in OPS:
            assert masks_equal(compare_vectors(op, a, b), ref_compare(op, a, b))


# --------------------------------------------------------------------- #
# Trailing NULs: the exact ``obj`` layout
# --------------------------------------------------------------------- #


class TestTrailingNul:
    def test_a_trailing_nul_takes_obj(self):
        assert Vector.from_values(["a", "a\x00"]).kind == KIND_OBJ
        assert Vector.from_values(["a", "a\x00b"]).kind == KIND_STR
        assert Vector.from_scalar("a\x00", 3).kind == KIND_OBJ
        assert Vector.from_scalar("a\x00b", 3).kind == KIND_STR

    def test_round_trip(self, nul_db):
        for strategy in (ROW, VECTOR):
            rows = repro.connect(nul_db).execute(
                "select r.a from r", strategy=strategy
            ).sorted().rows
            assert ("a\x00",) in rows and ("a",) in rows, strategy

    @pytest.mark.parametrize(
        "sql, want",
        [
            ("select r.k from r where r.a = 'a'", [(1,)]),
            ("select r.k from r where r.a > 'a'", [(2,), (3,), (4,)]),
            ("select r.k from r where r.a = 'a\x00'", [(2,)]),
            ("select r.k from r where r.a < 'a\x00'", [(1,), (5,)]),
        ],
    )
    def test_vector_answers_as_row(self, nul_db, sql, want):
        row, vec = both_engines(nul_db, sql)
        assert row == vec == want

    def test_a_literal_with_a_trailing_nul_against_a_str_column(self, str_db):
        row, vec = both_engines(str_db, "select r.k from r where r.a < 'b\x00'")
        assert row == vec

    def test_the_store_refuses_the_column(self, tmp_path):
        writer = StoreWriter(str(tmp_path / "nul"))
        table = writer.table("r", [Column("a")])
        table.extend([("a",), ("a\x00",)])
        with pytest.raises(CatalogError, match="obj"):
            table.finish()


# --------------------------------------------------------------------- #
# Whole queries: vector engine == row engine
# --------------------------------------------------------------------- #


def both_engines(db, sql, logic="3vl"):
    """``(row rows, vector rows)``, each sorted."""
    session = repro.connect(db, plan_cache=False)
    options = ExecutionOptions(logic=logic)
    return tuple(
        session.execute(sql, strategy=s, options=options).sorted().rows
        for s in (ROW, VECTOR)
    )


def str_database(r_rows, s_rows) -> Database:
    db = Database()
    db.create_table("r", [Column("a"), Column("k"), Column("d")], r_rows)
    db.create_table("s", [Column("b"), Column("k2")], s_rows)
    return db


@pytest.fixture(scope="module")
def nul_db() -> Database:
    db = Database()
    db.create_table(
        "r",
        [Column("a"), Column("k")],
        [("a", 1), ("a\x00", 2), ("b", 3), ("é", 4), ("", 5)],
    )
    return db


@pytest.fixture(scope="module")
def str_db() -> Database:
    return str_database(
        [
            ("a", 1, "a"), ("b", 2, "a"), ("c", 3, "c"), ("é", 4, "é"),
            ("", 5, "b"), (NULL, 6, "a"), ("ab", 7, NULL),
            ("a\x00b", 8, "a"), ("ÿ", 9, "ÿ\x00ÿ"), ("zz", 10, "z"),
        ],
        [
            ("a", 1), ("b", 1), ("a", 2), (NULL, 2), ("é", 4),
            ("", 5), ("zz", 10), ("€", 9),
        ],
    )


#: the hand-checked texts: each one a comparison shape
HAND_CHECKED = [
    "select r.k from r where r.a = r.d",
    "select r.k from r where 'b' > r.a",
    "select r.k from r where not (r.a between 'a' and 'c')",
    "select r.k from r where r.a not in ('a', NULL)",
    "select r.k from r where r.a in ('a', 'zz', 'é')",
    "select r.k from r where r.a >= all (select s.b from s where s.k2 = r.k)",
    "select r.k from r where r.a >= all (select s.b from s where s.k2 = 1)",
    "select r.k from r where r.a < some (select s.b from s where s.k2 <= r.k)",
    "select r.k from r where r.a <> r.d and r.d < 'z'",
    "select r.k from r where r.a <= '' or r.d >= 'é'",
    "select r.k from r, s where r.a = s.b and r.d < s.b",
]

#: the hand-checked texts with a join or a nest that can go to disk
SPILLING = [
    "select r.k from r where r.a >= all (select s.b from s where s.k2 = r.k)",
    "select r.k from r where r.a < some (select s.b from s where s.k2 <= r.k)",
    "select r.k from r, s where r.a = s.b and r.d < s.b",
]


#: hand-checked 3VL answers (``r.k``) on :func:`str_db`
PINNED = {
    "select r.k from r where r.a = r.d": [1, 3, 4],
    "select r.k from r where 'b' > r.a": [1, 5, 7, 8],
    "select r.k from r where not (r.a between 'a' and 'c')": [4, 5, 9, 10],
    "select r.k from r where r.a not in ('a', NULL)": [],
    # k = 9: 'ÿ' (255) < '€' (8364); k = 2: the NULL member is UNKNOWN;
    # k = 3, 6, 7, 8 have no members, so ALL is vacuously TRUE
    "select r.k from r where r.a >= all (select s.b from s where s.k2 = r.k)":
        [3, 4, 5, 6, 7, 8, 10],
}


class TestVectorEqualsRow:
    @pytest.mark.parametrize("sql", sorted(PINNED))
    def test_pinned(self, str_db, sql):
        row, vec = both_engines(str_db, sql)
        assert row == vec == [(k,) for k in PINNED[sql]], sql

    @pytest.mark.parametrize("logic", LOGICS)
    @pytest.mark.parametrize("sql", HAND_CHECKED)
    def test_hand_checked(self, str_db, sql, logic):
        row, vec = both_engines(str_db, sql, logic)
        assert vec == row, sql

    @pytest.mark.parametrize("k", PARTITIONS)
    @pytest.mark.parametrize("logic", LOGICS)
    @pytest.mark.parametrize("sql", SPILLING)
    def test_spilled(self, str_db, tmp_path, sql, logic, k):
        """Strings written to the spill files and read back memory-mapped
        compare as they do in memory."""
        row, _vec = both_engines(str_db, sql, logic)
        session = repro.connect(str_db, plan_cache=False)
        with forced_spill(tmp_path, k) as governor, governed(governor):
            got = session.execute(
                sql, strategy=VECTOR, options=ExecutionOptions(logic=logic)
            )
        assert got.sorted().rows == row, sql
        assert governor.spill_count >= 1

    def test_str_against_int_raises_on_both_engines(self, str_db):
        for strategy in (ROW, VECTOR):
            with pytest.raises(TypeError_):
                repro.connect(str_db).execute(
                    "select r.k from r where r.a < 5", strategy=strategy
                )

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(
                st.one_of(latin1, st.just(NULL)),
                st.integers(0, 3),
                st.one_of(any_text, st.just(NULL)),
            ),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from(OPS),
        any_text,
        st.sampled_from(LOGICS),
    )
    def test_random_databases(self, rows, op, lit, logic):
        db = str_database(rows, [(a, k) for a, k, _d in rows])
        lit_sql = "'" + lit.replace("'", "''") + "'"
        for sql in (
            f"select r.k from r where r.a {op} r.d",
            f"select r.k from r where r.a {op} {lit_sql}",
            f"select r.k from r where {lit_sql} {op} r.d",
            f"select r.k from r where r.a between r.d and {lit_sql}",
            f"select r.k from r where r.a {op} all "
            f"(select s.b from s where s.k2 = r.k)",
        ):
            row, vec = both_engines(db, sql, logic)
            assert vec == row, sql

