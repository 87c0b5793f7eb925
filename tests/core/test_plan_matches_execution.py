"""The plan is what runs, and what EXPLAIN prints.

Algorithm 1 decides everything at plan time, from column *names* alone
(:meth:`NestedRelationalStrategy.plan`); no backend is ever asked what
columns an intermediate has.  Over the fuzzer's query space (NULL-heavy
data, trees, disjunctions, aggregate links) × every rule set × both
backends this pins what that rests on:

* every plan node's static ``names`` equal the ``schema.names`` of the
  intermediate its operator actually returned;
* the multiset of planned operators equals the multiset of operator
  spans in the trace (strict → ``linking-selection``, pseudo →
  ``pseudo-selection``, mark → ``mark-selection``, …);
* EXPLAIN's plan (symbolic leaves) makes the same decisions, node for
  node, as the executed one.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.core.backend import RowBackend
from repro.core.compute import (
    BOTTOM_UP,
    DEFAULT_RULES,
    FUSE_LINKS,
    NEST_PUSHDOWN,
    SEMIJOIN_POSITIVE,
    STRICT_WHEN_POSITIVE,
    VIRTUAL_CARTESIAN,
    NestedRelationalStrategy,
)
from ..conftest import run_traced
from repro.engine.vector.backend import VectorBackend
from repro.fuzz import FuzzConfig, generate_case

#: plan node → the operator spans it must leave in a trace
ROW_SPANS = {
    "left_outer_join": lambda n: (
        ["OuterCrossJoin"] if n.cross else ["LeftOuterHashJoin"]
    ),
    "nest_link": lambda n: ["nest", f"{n.selection}-selection"],
    "uncorrelated_link": lambda n: ["uncorrelated-link"],
    "fused_link": lambda n: ["single-pass-link"],
    "pushdown_link": lambda n: ["nest-pushdown-link", "nest"],
    "semi_join": lambda n: ["SemiJoin"],
    "apply_residual": lambda n: ["linking-residual"],
    "finalize": lambda n: [],
}
VECTOR_SPANS = {
    "left_outer_join": lambda n: [
        "vec-outer-cross-join" if n.cross else "vec-left-outer-hash-join"
    ],
    "nest_link": lambda n: ["vec-nest-link"],
    "uncorrelated_link": lambda n: ["vec-uncorrelated-link"],
    "apply_residual": lambda n: ["vec-linking-residual"],
    "finalize": lambda n: [],
}


def recording(base, spans):
    """*base* with every node-taking method checking its output's names
    against the node and recording the node."""

    class Recording(base):
        expected_spans = spans

        def __init__(self):
            super().__init__()
            self.nodes = []

        def reduce_all(self, steps, db):
            reduced = super().reduce_all(steps, db)
            for step in steps:
                assert reduced[step.block.index].schema.names[-1] == step.rid
            return reduced

    def wrap(method):
        inner = getattr(base, method)

        def checked(self, *args):
            out = inner(self, *args)
            node = args[-1]
            assert node.method == method
            assert tuple(out.schema.names) == node.names, (method, node)
            self.nodes.append(node)
            return out

        return checked

    def join_nest(self, rel, child, join, nest):
        seen = len(self.nodes)
        out = base.join_nest(self, rel, child, join, nest)
        assert tuple(out.schema.names) == nest.names, ("join_nest", nest)
        if len(self.nodes) == seen:
            # fused: the join's output was never built, so only the
            # nest's names can be checked; both operators still ran
            self.nodes += [join, nest]
        else:
            assert self.nodes[seen:] == [join, nest]
        return out

    for method in spans:
        setattr(Recording, method, wrap(method))
    Recording.join_nest = join_nest
    return Recording


RecordingRow = recording(RowBackend, ROW_SPANS)
RecordingVector = recording(VectorBackend, VECTOR_SPANS)

RULE_SETS = {
    "default": DEFAULT_RULES,
    "textbook": {VIRTUAL_CARTESIAN},
    "real-product": {STRICT_WHEN_POSITIVE},
    "fuse-links": DEFAULT_RULES | {FUSE_LINKS},
    "bottom-up": DEFAULT_RULES | {BOTTOM_UP},
    "nest-pushdown": DEFAULT_RULES | {BOTTOM_UP, NEST_PUSHDOWN},
    "semijoin": DEFAULT_RULES | {BOTTOM_UP, SEMIJOIN_POSITIVE},
}
#: the vector engine has none of the §4.2 operators
VECTOR_RULE_SETS = ("default", "textbook", "real-product", "bottom-up")


def in_execution_order(node):
    """The plan nodes below *node* in the order step 3 applies them."""
    for edge in node.children:
        if edge.sub_first:
            yield from in_execution_order(edge.child)
        yield edge.connect
        if not edge.sub_first:
            yield from in_execution_order(edge.child)
        if edge.up is not None:
            yield edge.up
    if node.residual is not None:
        yield node.residual


def decisions(nodes):
    """What a plan decided, without the column names it decided it on."""
    return [
        (
            type(n).__name__,
            getattr(n, "selection", None),
            getattr(n, "strict", None),
            getattr(n, "cross", None),
            getattr(n, "nest_impl", None),
        )
        for n in nodes
    ]


def operator_spans(trace):
    """Names of the spans Algorithm 1's operators opened: everything
    outside the ``reduce[T_i]`` phases."""
    names = []

    def visit(span):
        if span.name.startswith("reduce["):
            return
        if span.kind in ("operator", "phase"):
            names.append(span.name)
        for child in span.children:
            visit(child)

    for root in trace.roots:
        visit(root)
    return names


def check(strategy, query, db):
    """Run *strategy* traced over its recording backend; returns the
    executed plan nodes and the result."""
    backend = strategy.backend
    backend.nodes.clear()
    result, trace = run_traced(query, db, strategy)
    nodes = list(backend.nodes)
    expected = Counter(
        name for n in nodes for name in backend.expected_spans[n.method](n)
    )
    assert Counter(operator_spans(trace)) == expected
    tree = strategy.plan(query)
    symbolic = list(in_execution_order(tree.root)) + [tree.finalize]
    assert decisions(symbolic) == decisions(nodes)
    # σ* names what it pads, and the plan said so
    pseudo = [n for n in nodes if getattr(n, "selection", None) == "pseudo"]
    if backend.kind == "row":
        assert sorted(
            s.attrs["pads"] for s in trace.find("pseudo-selection")
        ) == sorted(
            ",".join(n.pad_refs) for n in pseudo if n.method == "nest_link"
        )
    assert all(n.pad_refs for n in pseudo)
    return nodes, result


def strategies():
    for name, rules in RULE_SETS.items():
        impls = ("hash", "sorted") if name == "default" else ("hash",)
        for nest_impl in impls:
            yield name, NestedRelationalStrategy(
                rules, nest_impl, RecordingRow()
            )
        if name in VECTOR_RULE_SETS:
            yield name, NestedRelationalStrategy(
                rules, "sorted", RecordingVector()
            )


CONFIG = FuzzConfig(
    seed=21,
    max_depth=3,
    null_rate=0.4,
    tree_probability=0.35,
    disjunction_probability=0.3,
    aggregate_probability=0.15,
    # root GROUP BY runs after the strategy, outside its plan
    root_group_probability=0.0,
)
N_CASES = 240


def test_static_names_and_operators_match_the_execution():
    impls = list(strategies())
    kinds = Counter()
    fired = Counter()
    for iteration in range(N_CASES):
        case = generate_case(CONFIG, iteration)
        db = case.db_spec.build()
        query = repro.compile_sql(case.sql, db)
        reference = None
        for name, strategy in impls:
            if strategy.applicable(query, db) is not None:
                continue
            nodes, result = check(strategy, query, db)
            fired[name] += 1
            kinds.update(
                (type(n).__name__, getattr(n, "selection", None))
                for n in nodes
            )
            kinds.update("×" for n in nodes if getattr(n, "cross", False))
            rows = result.sorted().rows
            if reference is None:
                reference = rows
            assert rows == reference, (name, case.sql)
    # the sweep is not vacuous: every rule set ran, every node kind and
    # every selection kind was planned and executed
    assert fired["default"] == 3 * N_CASES
    assert all(fired[name] >= 10 for name in RULE_SETS), fired
    for kind in (
        ("OuterJoin", None),
        ("NestLink", "linking"),
        ("NestLink", "pseudo"),
        ("NestLink", "mark"),
        ("UncorrelatedLink", "linking"),
        ("UncorrelatedLink", "mark"),
        ("FusedLink", None),
        ("PushdownLink", None),
        ("SemiJoin", None),
        ("Residual", None),
        "×",
    ):
        assert kinds[kind] >= 5, (kind, kinds)


QUERY = """
select R.B, R.C, R.D from R
where R.B in (select S.E from S where R.D = S.G and S.H > all
                (select T.J from T where T.K = R.C))
"""


@pytest.mark.parametrize("make_backend", [RecordingRow, RecordingVector])
def test_selection_kind_is_the_planners_decision(paper_db, make_backend):
    """σ / σ* is decided once, in the plan: EXPLAIN prints it and the
    execution runs it.  Under ``strict-when-positive`` the inner link of
    an all-positive query is strict; the textbook algorithm pads."""
    query = repro.compile_sql(QUERY, paper_db)
    refined = NestedRelationalStrategy(backend=make_backend())
    assert "σ*" not in refined.explain(query)
    nodes, _ = check(refined, query, paper_db)
    assert [n.selection for n in nodes if n.method == "nest_link"] == [
        "linking", "linking",
    ]

    textbook = NestedRelationalStrategy(
        rules={VIRTUAL_CARTESIAN}, backend=make_backend()
    )
    assert "σ* S.H > ALL {T.J} pad[attrs(T2)]" in textbook.explain(query)
    nodes, _ = check(textbook, query, paper_db)
    assert [n.selection for n in nodes if n.method == "nest_link"] == [
        "pseudo", "linking",
    ]
    if textbook.backend.kind == "row":
        _, trace = run_traced(query, paper_db, textbook)
        assert len(trace.find("pseudo-selection")) == 1
        _, trace = run_traced(query, paper_db, refined)
        assert not trace.find("pseudo-selection")
