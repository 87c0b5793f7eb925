"""Property-based tests (hypothesis).

Two families:

1. **Algebraic invariants** of the nested relational operators — nest
   partitions its input, the implicit projection holds, unnest inverts
   nest on non-empty groups, linking-predicate semantics match a direct
   3VL evaluation.

2. **Differential testing** of the evaluation strategies on random
   databases *with NULLs* and randomly generated one- and two-level
   nested queries over them: every strategy must agree with the
   tuple-iteration oracle.  This is the property the paper's whole
   construction must satisfy.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.core.linking import SetPredicate
from repro.core.nest import nest, nest_sorted, unnest
from repro.engine import Column, Database, NULL, Relation, Schema
from repro.engine.types import (
    FALSE,
    TRUE,
    UNKNOWN,
    TriBool,
    is_null,
    row_group_key,
    sql_compare,
    tri_all,
    tri_any,
)

# --------------------------------------------------------------------- #
# value / row generators
# --------------------------------------------------------------------- #

sql_values = st.one_of(
    st.just(NULL),
    st.integers(min_value=-5, max_value=5),
)

non_null_values = st.integers(min_value=-5, max_value=5)


def rows(n_cols: int, max_rows: int = 12):
    return st.lists(
        st.tuples(*([sql_values] * n_cols)), min_size=0, max_size=max_rows
    )


THETAS = ["=", "<>", "<", "<=", ">", ">="]


# --------------------------------------------------------------------- #
# 3VL algebra properties
# --------------------------------------------------------------------- #

tribools = st.sampled_from([TRUE, FALSE, UNKNOWN])


class TestThreeValuedAlgebra:
    @given(a=tribools, b=tribools)
    def test_de_morgan(self, a, b):
        assert ~(a & b) is (~a | ~b)
        assert ~(a | b) is (~a & ~b)

    @given(a=tribools)
    def test_double_negation(self, a):
        assert ~~a is a

    @given(a=tribools, b=tribools, c=tribools)
    def test_conjunction_associative(self, a, b, c):
        assert ((a & b) & c) is (a & (b & c))

    @given(values=st.lists(tribools, max_size=8))
    def test_tri_all_is_fold_of_and(self, values):
        folded = TRUE
        for v in values:
            folded = folded & v
        assert tri_all(values) is folded

    @given(values=st.lists(tribools, max_size=8))
    def test_tri_any_is_fold_of_or(self, values):
        folded = FALSE
        for v in values:
            folded = folded | v
        assert tri_any(values) is folded

    @given(op=st.sampled_from(THETAS), a=sql_values, b=sql_values)
    def test_negated_op_is_complement_on_non_null(self, op, a, b):
        from repro.engine.types import negate_op

        direct = sql_compare(op, a, b)
        negated = sql_compare(negate_op(op), a, b)
        if is_null(a) or is_null(b):
            assert direct is UNKNOWN and negated is UNKNOWN
        else:
            assert direct is not negated


# --------------------------------------------------------------------- #
# nest / unnest invariants
# --------------------------------------------------------------------- #


def make_rel(data):
    return Relation(Schema.of("a", "b", "c", table="t"), data)


class TestNestInvariants:
    @given(data=rows(3))
    def test_groups_partition_input(self, data):
        rel = make_rel(data)
        nested = nest(rel, by=["t.a"], keep=["t.b", "t.c"])
        total_distinct = {row_group_key(r[:1] + r[1:]) for r in rel.rows}
        regrouped = set()
        for row in nested.rows:
            for member in row[1]:
                regrouped.add(row_group_key((row[0],) + member))
        assert regrouped == {row_group_key(r) for r in rel.rows}

    @given(data=rows(3))
    def test_group_keys_unique(self, data):
        nested = nest(make_rel(data), by=["t.a", "t.b"], keep=["t.c"])
        keys = [row_group_key(row[:2]) for row in nested.rows]
        assert len(keys) == len(set(keys))

    @given(data=rows(3))
    def test_hash_and_sorted_nest_agree(self, data):
        rel = make_rel(data)
        from repro.engine.types import row_sort_key

        a = nest(rel, by=["t.a"], keep=["t.b", "t.c"])
        b = nest_sorted(rel, by=["t.a"], keep=["t.b", "t.c"])
        norm = lambda nr: sorted(
            (
                row_sort_key(row[:1]),
                tuple(sorted(map(row_sort_key, row[1]))),
            )
            for row in nr.rows
        )
        assert norm(a) == norm(b)

    @given(data=rows(3))
    def test_unnest_recovers_distinct_rows(self, data):
        """unnest(nest(r)) equals r up to duplicate elimination (nest
        collects members into a *set*)."""
        rel = make_rel(data)
        nested = nest(rel, by=["t.a"], keep=["t.b", "t.c"])
        flat = unnest(nested)
        assert flat.sorted().rows == rel.distinct().sorted().rows

    @given(data=rows(3))
    def test_members_never_empty_from_nest(self, data):
        """nest itself never creates empty groups — only outer-join
        padding plus pk filtering does."""
        nested = nest(make_rel(data), by=["t.a"], keep=["t.b"])
        assert all(len(row[1]) >= 1 for row in nested.rows)


# --------------------------------------------------------------------- #
# linking predicate semantics == direct 3VL evaluation
# --------------------------------------------------------------------- #


class TestLinkingPredicateSemantics:
    @given(
        lhs=sql_values,
        members=st.lists(
            st.tuples(sql_values, st.one_of(st.just(NULL), st.just(1))),
            max_size=8,
        ),
        theta=st.sampled_from(THETAS),
        quantifier=st.sampled_from(["some", "all"]),
    )
    def test_matches_direct_evaluation(self, lhs, members, theta, quantifier):
        pred = SetPredicate(quantifier, theta)
        live = [v for v, pk in members if not is_null(pk)]
        comparisons = [sql_compare(theta, lhs, v) for v in live]
        expected = tri_all(comparisons) if quantifier == "all" else tri_any(comparisons)
        assert pred.evaluate(lhs, members) is expected

    @given(
        members=st.lists(
            st.tuples(sql_values, st.one_of(st.just(NULL), st.just(1))),
            max_size=8,
        )
    )
    def test_exists_counts_live_members(self, members):
        live = [v for v, pk in members if not is_null(pk)]
        assert SetPredicate("exists").evaluate(NULL, members) is TriBool.from_bool(
            bool(live)
        )
        assert SetPredicate("not_exists").evaluate(NULL, members) is TriBool.from_bool(
            not live
        )

    @given(lhs=sql_values, theta=st.sampled_from(THETAS))
    def test_duality_some_all(self, lhs, theta):
        """¬(A θ SOME S) == A ¬θ ALL S (the IN/NOT IN duality)."""
        from repro.engine.types import negate_op

        members = [(v, 1) for v in (1, 2, NULL)]
        some = SetPredicate("some", theta).evaluate(lhs, members)
        all_neg = SetPredicate("all", negate_op(theta)).evaluate(lhs, members)
        assert ~some is all_neg


# --------------------------------------------------------------------- #
# random databases + random queries: strategies vs oracle
# --------------------------------------------------------------------- #


@st.composite
def random_database(draw):
    db = Database()
    r_rows = draw(rows(2, max_rows=8))
    s_rows = draw(rows(3, max_rows=10))
    t_rows = draw(rows(2, max_rows=8))
    db.create_table(
        "r",
        [Column("k", not_null=True), Column("a"), Column("b")],
        [(i,) + row for i, row in enumerate(r_rows)],
        primary_key="k",
    )
    db.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("v"), Column("w")],
        [(i,) + row for i, row in enumerate(s_rows)],
        primary_key="k",
    )
    db.create_table(
        "t",
        [Column("k", not_null=True), Column("sk"), Column("c")],
        [(i,) + row for i, row in enumerate(t_rows)],
        primary_key="k",
    )
    return db


link_ops = st.sampled_from(
    ["exists", "not exists", "in", "not in",
     "= any", "<> any", "< any", "> any",
     "= all", "<> all", "< all", ">= all"]
)


def link_text(op, lhs, subquery):
    if op == "exists":
        return f"exists ({subquery})"
    if op == "not exists":
        return f"not exists ({subquery})"
    return f"{lhs} {op} ({subquery})"


@st.composite
def one_level_query(draw):
    op = draw(link_ops)
    corr = draw(st.sampled_from(["s.rk = r.k", "s.rk = r.a", "s.w <> r.b", ""]))
    where_inner = f"where {corr}" if corr else ""
    sub = f"select s.v from s {where_inner}"
    if op in ("exists", "not exists"):
        sub = f"select * from s {where_inner}"
    lhs = draw(st.sampled_from(["r.a", "r.b"]))
    return f"select r.k from r where {link_text(op, lhs, sub)}"


@st.composite
def two_level_query(draw):
    op1 = draw(link_ops)
    op2 = draw(link_ops)
    corr1 = draw(st.sampled_from(["s.rk = r.k", "s.rk = r.a"]))
    corr2 = draw(
        st.sampled_from(["t.sk = s.k", "t.sk = s.v", "t.c <> s.w", "t.sk = r.k"])
    )
    sub2 = f"select t.c from t where {corr2}"
    if op2 in ("exists", "not exists"):
        sub2 = f"select * from t where {corr2}"
    inner_link = link_text(op2, "s.w", sub2)
    sub1 = f"select s.v from s where {corr1} and {inner_link}"
    if op1 in ("exists", "not exists"):
        sub1 = f"select * from s where {corr1} and {inner_link}"
    lhs = draw(st.sampled_from(["r.a", "r.b"]))
    return f"select r.k from r where {link_text(op1, lhs, sub1)}"


#: Non-equality thetas for quantified links: the cases where Kim-style
#: COUNT rewrites and MAX/MIN rewrites are most fragile under NULLs.
NONEQ_THETAS = ["<", ">=", "<>"]


@st.composite
def noneq_quantified_query(draw):
    """``A θ SOME/ALL (subquery)`` with θ drawn from <, >=, <> only."""
    theta = draw(st.sampled_from(NONEQ_THETAS))
    quantifier = draw(st.sampled_from(["some", "all", "any"]))
    corr = draw(st.sampled_from(["s.rk = r.k", "s.w < r.b", ""]))
    where_inner = f"where {corr}" if corr else ""
    lhs = draw(st.sampled_from(["r.a", "r.b"]))
    return (
        f"select r.k from r where {lhs} {theta} {quantifier} "
        f"(select s.v from s {where_inner})"
    )


COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestStrategiesAgainstOracle:
    @COMMON_SETTINGS
    @given(db=random_database(), sql=one_level_query())
    def test_one_level(self, db, sql):
        prepared = repro.connect(db).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        for strategy in (
            "nested-relational",
            "nested-relational-sorted",
            "nested-relational-optimized",
            "system-a-native",
            "auto",
        ):
            assert prepared.execute(strategy=strategy).sorted() == oracle, strategy

    @COMMON_SETTINGS
    @given(db=random_database(), sql=two_level_query())
    def test_two_level(self, db, sql):
        prepared = repro.connect(db).prepare(sql)
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        for strategy in (
            "nested-relational",
            "nested-relational-optimized",
            "system-a-native",
            "auto",
        ):
            assert prepared.execute(strategy=strategy).sorted() == oracle, strategy

    @COMMON_SETTINGS
    @given(db=random_database(), sql=noneq_quantified_query())
    def test_noneq_some_all(self, db, sql):
        """θ SOME/ALL with non-equality comparators: the quantified cases
        where a wrong NULL treatment shows up as < vs >= asymmetries."""
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        for strategy in (
            "nested-relational",
            "nested-relational-sorted",
            "nested-relational-optimized",
            "system-a-native",
            "auto",
        ):
            assert prepared.execute(strategy=strategy).sorted() == oracle, strategy
        bottom_up = repro.strategies.make("nested-relational-bottomup")
        if bottom_up.applicable(q, db) is None:
            assert bottom_up.execute(q, db).sorted() == oracle, "bottom-up"

    @COMMON_SETTINGS
    @given(db=random_database(), sql=one_level_query())
    def test_bottom_up_when_applicable(self, db, sql):
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        strategy = repro.strategies.make("nested-relational-bottomup")
        if strategy.applicable(q, db) is not None:
            return
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        assert strategy.execute(q, db).sorted() == oracle

    @COMMON_SETTINGS
    @given(db=random_database(), sql=one_level_query())
    def test_count_and_boolean_when_applicable(self, db, sql):
        from repro.baselines import BooleanAggregateStrategy, CountRewriteStrategy

        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        oracle = None
        for strategy in (CountRewriteStrategy(), BooleanAggregateStrategy()):
            if strategy.applicable(q, db) is not None:
                continue
            if oracle is None:
                oracle = prepared.execute(strategy="nested-iteration").sorted()
            assert strategy.execute(q, db).sorted() == oracle


# --------------------------------------------------------------------- #
# selection operator properties
# --------------------------------------------------------------------- #


class TestSelectionProperties:
    @COMMON_SETTINGS
    @given(
        data=rows(4, max_rows=16),
        theta=st.sampled_from(THETAS),
        quantifier=st.sampled_from(["some", "all"]),
    )
    def test_pseudo_keeps_every_group_strict_keeps_a_subset(self, data, theta, quantifier):
        """σ* preserves group count; σ's survivors are exactly the rows σ*
        leaves unpadded."""
        from repro.core.linking import SetPredicate
        from repro.core.nest import nest
        from repro.core.selection import linking_selection, pseudo_selection

        rel = Relation(
            Schema.of("g", "lhs", "v", "pk", table="t"),
            [
                # pk is a live marker or a NULL empty-set marker, exactly
                # the two shapes outer-join output takes
                (g, lhs, v, NULL if is_null(pk) else 1)
                for g, lhs, v, pk in data
            ],
        )
        nested = nest(rel, by=["t.g", "t.lhs"], keep=["t.v", "t.pk"])
        pred = SetPredicate(quantifier, theta)
        strict = linking_selection(nested, pred, "t.lhs", "t.v", pk_ref="t.pk")
        pseudo = pseudo_selection(
            nested, pred, "t.lhs", "t.v", pk_ref="t.pk", pad_refs=["t.lhs"]
        )
        # σ* keeps every group; σ keeps a subset
        assert len(pseudo) == len(nested)
        assert len(strict) <= len(nested)
        # every strict survivor appears unpadded in the pseudo output
        pseudo_keys = list(map(row_group_key, pseudo.rows))
        for key in map(row_group_key, strict.rows):
            assert key in pseudo_keys

    @COMMON_SETTINGS
    @given(data=rows(3, max_rows=16), theta=st.sampled_from(THETAS))
    def test_strict_some_all_partition_with_complement(self, data, theta):
        """For groups with non-empty live sets and non-NULL outcomes, σ with
        θ SOME and σ with ¬θ ALL partition the input (De Morgan for
        quantifiers)."""
        from repro.engine.types import negate_op
        from repro.core.linking import SetPredicate
        from repro.core.nest import nest
        from repro.core.selection import linking_selection

        rel = Relation(
            Schema.of("g", "lhs", "v", table="t"),
            [(g, lhs, v) for g, lhs, v in data],
        )
        # pk = v here: NULL v doubles as a dead member, keeping the test on
        # the live-members-only contract
        wide = Relation(
            Schema.of("g", "lhs", "v", "pk", table="t"),
            [(g, lhs, v, v) for g, lhs, v in data],
        )
        nested = nest(wide, by=["t.g", "t.lhs"], keep=["t.v", "t.pk"])
        some = linking_selection(
            nested, SetPredicate("some", theta), "t.lhs", "t.v", pk_ref="t.pk"
        )
        all_neg = linking_selection(
            nested,
            SetPredicate("all", negate_op(theta)),
            "t.lhs",
            "t.v",
            pk_ref="t.pk",
        )
        some_keys = set(map(row_group_key, some.rows))
        all_keys = set(map(row_group_key, all_neg.rows))
        # ¬(θ SOME) == ¬θ ALL, so a group can never satisfy both
        assert not (some_keys & all_keys)


class TestAggregateRewriteProperty:
    @COMMON_SETTINGS
    @given(
        r_rows=st.lists(st.tuples(non_null_values, non_null_values), max_size=8),
        s_rows=st.lists(
            st.tuples(non_null_values, non_null_values), max_size=12
        ),
        theta=st.sampled_from(["<", "<=", ">", ">="]),
        quantifier=st.sampled_from(["all", "any"]),
    )
    def test_matches_oracle_on_null_free_data(self, r_rows, s_rows, theta, quantifier):
        """On NOT NULL data Kim's MAX/MIN rewrite is exact — for every
        inequality theta and both quantifiers."""
        from repro.baselines import AggregateRewriteStrategy

        db = Database()
        db.create_table(
            "r",
            [Column("k", not_null=True), Column("a", not_null=True),
             Column("g", not_null=True)],
            [(i, a, g) for i, (a, g) in enumerate(r_rows)],
            primary_key="k",
        )
        db.create_table(
            "s",
            [Column("k", not_null=True), Column("rg", not_null=True),
             Column("b", not_null=True)],
            [(i, rg, b) for i, (rg, b) in enumerate(s_rows)],
            primary_key="k",
        )
        sql = (
            f"select r.k from r where r.a {theta} {quantifier} "
            "(select s.b from s where s.rg = r.g)"
        )
        prepared = repro.connect(db).prepare(sql)
        q = prepared.query
        strategy = AggregateRewriteStrategy()
        assert strategy.applicable(q, db) is None
        oracle = prepared.execute(strategy="nested-iteration").sorted()
        assert strategy.execute(q, db).sorted() == oracle
