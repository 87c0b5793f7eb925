"""Unit tests for expression evaluation under three-valued logic.

Every per-node case runs twice, through the tree-walking
``Expr.evaluate`` / ``truth`` and through the closures ``Expr.bind`` /
``bind_truth`` compile (the ``via`` fixture); the property at the end
holds the two to each other on random trees and rows.
"""

import datetime

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.engine.expressions import (
    And,
    Arith,
    Between,
    Col,
    Comparison,
    EvalContext,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    _value,
    bind_truth,
    bind_value,
    cmp,
    conjoin,
    eq,
    split_conjuncts,
    truth,
)
from repro.engine.logic import logic_mode
from repro.engine.operators import filter_relation, hash_join
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FALSE, NULL, TRUE, UNKNOWN, is_null
from repro.errors import ExpressionError, TypeError_


SCHEMA = Schema.of("a", "b", table="t")


def ctx(a, b):
    return EvalContext.single(SCHEMA, (a, b))


class Interpreted:
    """*expr* over the row (a, b) through the tree walk."""

    @staticmethod
    def evaluate(expr, a, b):
        return expr.evaluate(ctx(a, b))

    @staticmethod
    def truth(expr, a, b):
        return truth(expr, ctx(a, b))


class Bound:
    """The same through the closures the row operators run."""

    @staticmethod
    def evaluate(expr, a, b):
        return expr.bind(SCHEMA)((a, b))

    @staticmethod
    def truth(expr, a, b):
        return bind_truth(expr, SCHEMA)((a, b))


@pytest.fixture(params=[Interpreted, Bound], ids=["interpreted", "bound"])
def via(request):
    return request.param


class TestColumnResolution:
    def test_lookup(self, via):
        assert via.evaluate(Col("t.a"), 7, 8) == 7

    def test_bare_name(self, via):
        assert via.evaluate(Col("b"), 7, 8) == 8

    def test_unresolved(self, via):
        with pytest.raises(ExpressionError, match="unresolved"):
            via.evaluate(Col("t.z"), 1, 2)

    def test_ambiguous_bare_name_is_unresolved(self):
        schema = Schema.of("k", table="l").concat(Schema.of("k", table="r"))
        with pytest.raises(ExpressionError, match="unresolved"):
            Col("k").evaluate(EvalContext.single(schema, (1, 2)))
        with pytest.raises(ExpressionError, match="unresolved"):
            Col("k").bind(schema)((1, 2))
        assert Col("r.k").bind(schema)((1, 2)) == 2

    def test_inner_frame_shadows_outer(self):
        outer = EvalContext.single(Schema.of("a", table="o"), (100,))
        inner = outer.push(SCHEMA, (1, 2))
        assert Col("a").evaluate(inner) == 1  # innermost wins (bare name)
        assert Col("o.a").evaluate(inner) == 100

    def test_correlation_reaches_outer_frame(self):
        outer = EvalContext.single(Schema.of("x", table="o"), (42,))
        inner = outer.push(SCHEMA, (1, 2))
        assert Col("o.x").evaluate(inner) == 42

    def test_resolvable(self):
        c = ctx(1, 2)
        assert c.resolvable("t.a")
        assert not c.resolvable("nope")


class TestComparisonExpr:
    def test_true_false(self, via):
        assert via.evaluate(Comparison("<", Col("t.a"), Col("t.b")), 1, 2) is TRUE
        assert via.evaluate(Comparison(">", Col("t.a"), Col("t.b")), 1, 2) is FALSE

    def test_null_gives_unknown(self, via):
        assert via.evaluate(Comparison("=", Col("t.a"), Literal(1)), NULL, 2) is UNKNOWN

    def test_mixed_kinds_defer_to_sql_compare(self, via):
        """The bound fast path covers one non-bool type or two numbers;
        everything else must behave exactly as ``sql_compare`` says."""
        equal = Comparison("=", Col("t.a"), Col("t.b"))
        assert via.evaluate(equal, 2, 2.0) is TRUE
        assert via.evaluate(equal, True, True) is TRUE
        assert via.evaluate(equal, "x", "y") is FALSE
        day = datetime.date(1994, 1, 1)
        assert via.evaluate(Comparison("<=", Col("t.a"), Col("t.b")), day, day) is TRUE
        for a, b in [(True, 1), (1, "1"), (day, "1994-01-01")]:
            with pytest.raises(TypeError_, match="cannot compare"):
                via.evaluate(equal, a, b)
        with pytest.raises(TypeError_, match="unknown comparison"):
            via.evaluate(Comparison("~", Col("t.a"), Col("t.b")), 1, 2)

    def test_negated(self):
        c = Comparison("<", Col("t.a"), Col("t.b"))
        assert c.negated().op == ">="

    def test_columns_collected(self):
        c = Comparison("<", Col("t.a"), Col("t.b"))
        assert c.columns() == ["t.a", "t.b"]


class TestLogicalExpr:
    def test_and_unknown_absorbs(self, via):
        e = And(cmp("t.a", "=", 1), cmp("t.b", "=", 2))
        assert via.evaluate(e, 1, NULL) is UNKNOWN
        assert via.evaluate(e, 0, NULL) is FALSE

    def test_or_unknown(self, via):
        e = Or(cmp("t.a", "=", 1), cmp("t.b", "=", 2))
        assert via.evaluate(e, 1, NULL) is TRUE
        assert via.evaluate(e, 0, NULL) is UNKNOWN

    def test_not_unknown(self, via):
        e = Not(cmp("t.a", "=", 1))
        assert via.evaluate(e, NULL, 0) is UNKNOWN

    def test_combinators(self, via):
        e = cmp("t.a", "=", 1).and_(cmp("t.b", "=", 2))
        assert via.evaluate(e, 1, 2) is TRUE
        assert via.evaluate(cmp("t.a", "=", 1).negate(), 1, 0) is FALSE

    def test_no_short_circuit(self, via):
        """A type error right of a FALSE conjunct (or a TRUE disjunct)
        still surfaces — as on the vector backend, which evaluates whole
        columns."""
        bad = cmp("t.b", "=", "text")
        with pytest.raises(TypeError_):
            via.evaluate(And(cmp("t.a", "=", 1), bad), 0, 5)
        with pytest.raises(TypeError_):
            via.evaluate(Or(cmp("t.a", "=", 1), bad), 1, 5)


class TestIsNullExpr:
    def test_is_null_two_valued(self, via):
        assert via.evaluate(IsNull(Col("t.a")), NULL, 1) is TRUE
        assert via.evaluate(IsNull(Col("t.a")), 5, 1) is FALSE

    def test_is_not_null(self, via):
        assert via.evaluate(IsNull(Col("t.a"), negated=True), NULL, 1) is FALSE
        assert via.evaluate(IsNull(Col("t.a"), negated=True), 5, 1) is TRUE


class TestBetweenExpr:
    def test_inclusive(self, via):
        e = Between(Col("t.a"), Literal(1), Literal(3))
        assert via.evaluate(e, 1, 0) is TRUE
        assert via.evaluate(e, 3, 0) is TRUE
        assert via.evaluate(e, 4, 0) is FALSE

    def test_null_operand(self, via):
        e = Between(Col("t.a"), Literal(1), Literal(3))
        assert via.evaluate(e, NULL, 0) is UNKNOWN

    def test_null_bound_partial(self, via):
        # a BETWEEN null AND 3 with a=5: a>=null UNKNOWN, a<=3 FALSE -> FALSE
        e = Between(Col("t.a"), Literal(NULL), Literal(3))
        assert via.evaluate(e, 5, 0) is FALSE


class TestInListExpr:
    def test_membership(self, via):
        e = InList(Col("t.a"), (Literal(1), Literal(2)))
        assert via.evaluate(e, 2, 0) is TRUE
        assert via.evaluate(e, 3, 0) is FALSE

    def test_null_in_list_semantics(self, via):
        """x NOT IN (1, NULL) is UNKNOWN unless x matches a literal."""
        e = InList(Col("t.a"), (Literal(1), Literal(NULL)), negated=True)
        assert via.evaluate(e, 1, 0) is FALSE
        assert via.evaluate(e, 2, 0) is UNKNOWN


class TestArithExpr:
    def test_basic(self, via):
        e = Arith("+", Col("t.a"), Literal(10))
        assert via.evaluate(e, 5, 0) == 15

    def test_null_propagates(self, via):
        e = Arith("*", Col("t.a"), Literal(10))
        assert is_null(via.evaluate(e, NULL, 0))

    def test_division_by_zero_null(self, via):
        e = Arith("/", Literal(1), Literal(0))
        assert is_null(via.evaluate(e, 0, 0))

    def test_unknown_operator(self, via):
        e = Arith("%", Col("t.a"), Literal(2))
        assert is_null(via.evaluate(e, NULL, 0))  # NULL wins, as in evaluate
        with pytest.raises(ExpressionError, match="unknown arithmetic"):
            via.evaluate(e, 5, 0)


class TestTruthCoercion:
    def test_null_value_is_unknown(self, via):
        assert via.truth(Literal(NULL), 0, 0) is UNKNOWN

    def test_null_value_is_false_under_2vl(self, via):
        with logic_mode("2vl"):
            assert via.truth(Literal(NULL), 0, 0) is FALSE
            assert via.truth(Not(cmp("t.a", "=", 1)), NULL, 0) is TRUE

    def test_bool_value(self, via):
        assert via.truth(Literal(True), 0, 0) is TRUE
        assert via.truth(Col("t.a"), False, 0) is FALSE

    def test_non_bool_value_raises(self, via):
        with pytest.raises(ExpressionError, match="not a predicate"):
            via.truth(Literal(5), 0, 0)

    def test_predicate_as_value(self):
        e = cmp("t.a", "=", 1)
        for a, expected in [(1, True), (2, False), (NULL, NULL)]:
            assert _value(e, ctx(a, 0)) is expected
            assert bind_value(e, SCHEMA)((a, 0)) is expected


class TestConjunctHelpers:
    def test_conjoin_empty_is_true(self, via):
        assert via.truth(conjoin([]), 0, 0) is TRUE

    def test_conjoin_single(self, via):
        e = conjoin([cmp("t.a", "=", 1)])
        assert via.evaluate(e, 1, 0) is TRUE

    def test_split_roundtrip(self):
        parts = [cmp("t.a", "=", 1), cmp("t.b", "=", 2), eq("t.a", "t.b")]
        assert split_conjuncts(conjoin(parts)) == parts

    def test_split_of_true_literal_is_empty(self):
        assert split_conjuncts(conjoin([])) == []


# --------------------------------------------------------------------- #
# bound == interpreted, on random trees and rows
# --------------------------------------------------------------------- #

WIDE = Schema.of("a", "b", "c", "d", table="t")

# NULL-heavy, and every kind sql_compare tells apart
values = st.one_of(
    st.just(NULL),
    st.just(NULL),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([-1.5, 0.0, 1.0, 2.0]),
    st.booleans(),
    st.sampled_from(["", "a", "b"]),
    st.sampled_from([datetime.date(1994, 1, 1), datetime.date(1995, 6, 30)]),
)
wide_rows = st.tuples(values, values, values, values)

# "t.z" resolves nowhere; "~" and "%" are operators neither evaluator knows
leaves = st.one_of(
    st.sampled_from(["t.a", "b", "t.c", "d", "t.z"]).map(Col),
    values.map(Literal),
)


def _nodes(children):
    thetas = st.sampled_from(["=", "<>", "!=", "<", "<=", ">", ">=", "~"])
    return st.one_of(
        st.builds(Comparison, thetas, children, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Between, children, children, children),
        st.builds(
            InList,
            children,
            st.lists(children, max_size=3).map(tuple),
            st.booleans(),
        ),
        st.builds(Arith, st.sampled_from("+-*/%"), children, children),
    )


exprs = st.recursive(leaves, _nodes, max_leaves=8)


def outcome(fn):
    """What *fn* returned (kind-exact: 1, 1.0 and True differ) or the
    type of what it raised."""
    try:
        result = fn()
    except Exception as exc:  # the property is about *which* one
        return ("raised", type(exc))
    return ("returned", type(result), result)


class TestBoundAgreesWithInterpreted:
    @settings(max_examples=400, deadline=None)
    @given(expr=exprs, row=wide_rows, logic=st.sampled_from(["3vl", "2vl"]))
    def test_same_result_or_same_exception(self, expr, row, logic):
        context = EvalContext.single(WIDE, row)
        with logic_mode(logic):
            for bound, interpreted in [
                (lambda: expr.bind(WIDE)(row), lambda: expr.evaluate(context)),
                (lambda: bind_truth(expr, WIDE)(row), lambda: truth(expr, context)),
                (lambda: bind_value(expr, WIDE)(row), lambda: _value(expr, context)),
            ]:
                assert outcome(bound) == outcome(interpreted)

    @given(expr=exprs)
    def test_binding_never_raises(self, expr):
        """Unresolved columns and unknown operators fail per row, so an
        operator over an empty input stays silent."""
        bind_truth(expr, WIDE)
        bind_value(expr, Schema.of("other"))


# --------------------------------------------------------------------- #
# the operators run on the bound form
# --------------------------------------------------------------------- #


class TestOperatorsBindPerRun:
    def test_unresolved_column_raises_per_row_not_per_operator(self):
        dangling = cmp("t.z", "=", 1)
        assert filter_relation(Relation(SCHEMA, []), dangling).rows == []
        with pytest.raises(ExpressionError, match="unresolved"):
            filter_relation(Relation(SCHEMA, [(1, 2)]), dangling)
        other = Relation(Schema.of("k", table="r"), [])
        joined = hash_join(
            Relation(SCHEMA, [(1, 2)]), other, ["t.a"], ["r.k"], residual=dangling
        )
        assert joined.rows == []

    def test_logic_mode_is_read_when_the_run_starts(self):
        """One predicate, two runs: a closure bound under 2VL must not
        answer for the 3VL run (NOT (NULL = 1) keeps the row only under
        2VL)."""
        source = Relation(SCHEMA, [(NULL, 0), (2, 0)])
        predicate = Not(cmp("t.a", "=", 1))
        with logic_mode("2vl"):
            assert filter_relation(source, predicate).rows == [(NULL, 0), (2, 0)]
        with logic_mode("3vl"):
            assert filter_relation(source, predicate).rows == [(2, 0)]

    def test_figure_query_builds_no_eval_context(self, tiny_tpch, monkeypatch):
        """Algorithm 1 on the row backend evaluates every predicate —
        reduce filters, join residuals — through bound closures: not one
        EvalContext is built (there were two per predicate evaluation)."""
        built = []
        init = EvalContext.__init__

        def counting_init(self, frames=None):
            built.append(1)
            init(self, frames)

        # plan_cache=False: every execution runs its reduce filters, none
        # reads T_i from the session's reduce memo
        query = repro.connect(tiny_tpch, plan_cache=False).prepare(
            repro.tpch.query1("1992-01-01", "1994-06-01")
        )
        expected = query.execute(backend="vector")
        monkeypatch.setattr(EvalContext, "__init__", counting_init)
        for strategy in ("nested-relational", "nested-relational-optimized"):
            result, trace = query.trace(strategy=strategy, backend="row")
            assert result == expected
            assert {"Filter", "LeftOuterHashJoin"} <= {s.name for s in trace.spans()}
        assert built == []
