"""The vector joins' residual reads only the columns it mentions, and
nothing an observer can see moved: rows (in order), per-execution
``Metrics`` totals, the trace's span multiset (names, kinds, attrs,
``rows_in`` / ``rows_out``), error types and messages, and the bytes the
governor is charged all equal what the all-columns candidate batch and
the per-column gathers produced.

``tests/golden/vector_residual.json`` was recorded **at the parent
commit** of that change, with the parent's ``src/`` and this file::

    PYTHONPATH=<parent checkout>/src python -m tests.engine.test_vector_residual

There is deliberately no ``--update-golden`` path: a kernel change that
moves a row, a counter or a charged byte must fail here and be re-based
by recording at *its* parent, never from the change itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter

import pytest

import repro
from repro.engine import NULL, Column, Schema
from repro.engine.colstore import load_stored_database
from repro.engine.expressions import Col, Comparison, Literal
from repro.engine.governor import ResourceGovernor, governed
from repro.engine.metrics import collect
from repro.engine.trace import tracing
from repro.engine.vector import Batch, Vector, kernels
from repro.engine.vector.strategy import VectorizedNestedRelationalStrategy
from repro.errors import ReproError
from repro.tpch import TpchConfig, generate, generate_stored, query1, query2, query3

from ..conftest import make_paper_db
from ..core.test_explain import QUERY_Q
from ..core.test_explain_golden import GOLDEN_DIR, PAPER_QUERIES

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "vector_residual.json")

#: span kinds whose multiset is pinned (the governor span's attrs carry
#: a temp path, and no planner runs under an explicit strategy)
SPAN_KINDS = ("operator", "phase", "spill")

FIGURE_STEMS = [p.values[0] for p in PAPER_QUERIES]
QUERY_STEMS = FIGURE_STEMS + ["query_q"]
LOGICS = ("3vl", "2vl")

#: far above anything SF 0.001 charges: accounting on, budget never binding
NON_BINDING_MB = 4096


def sha1(obj) -> str:
    return hashlib.sha1(repr(obj).encode("utf-8")).hexdigest()


def span_summary(trace):
    """The trace's span multiset: a digest over (name, kind, attrs,
    rows_in, rows_out) plus the per-name counts that make a mismatch
    readable."""
    spans = sorted(
        (
            span.name,
            span.kind,
            sorted((k, str(v)) for k, v in span.attrs.items()),
            span.counters.get("rows_in"),
            span.counters.get("rows_out"),
        )
        for span in trace.spans()
        if span.kind in SPAN_KINDS
    )
    names = Counter(span[0] for span in spans)
    return {"sha1": sha1(spans), "names": dict(sorted(names.items()))}


# --------------------------------------------------------------------- #
# Whole queries: the six figures + Query Q, both logics
# --------------------------------------------------------------------- #


def tpch_nulls():
    """SF 0.001 with NULLs in the price columns, so 2VL and 3VL differ."""
    return generate(
        TpchConfig(scale_factor=0.001, seed=1234, inject_null_fraction=0.08)
    )


def query_text(stem: str) -> str:
    if stem == "query_q":
        return QUERY_Q
    return next(p.values[1] for p in PAPER_QUERIES if p.values[0] == stem)


def observe_query(db, stem: str, logic: str):
    """One traced execution on the vector backend, in golden form."""
    strategy = VectorizedNestedRelationalStrategy()
    prepared = repro.connect(db, plan_cache=False, logic=logic).prepare(
        query_text(stem)
    )
    with collect() as metrics:
        result, trace = prepared.trace(strategy=strategy)
    return {
        "rows": len(result),
        "rows_sha1": sha1(list(result.rows)),
        "metrics": metrics.snapshot(),
        "spans": span_summary(trace),
    }


def query_case_id(stem, logic) -> str:
    # "t1": the golden was recorded when the engine also ran at two
    # threads, and keeps its keys
    return f"{stem}/{logic}/t1"


# --------------------------------------------------------------------- #
# Enumerated joins: what the residual mentions
# --------------------------------------------------------------------- #


def join_inputs():
    """Two deterministic batches with NULLs, strings wider than eight
    bytes (the ``uint32`` row gather) and narrower, and a column name
    (``a``, ``k``) on both sides.  The right side is the larger one so
    that a spilled join's estimate exceeds what it really charges."""
    def column(n, fn):
        return Vector.from_values([fn(i) for i in range(n)])

    nl, nr = 40, 160
    left = Batch(
        Schema([Column(c, table="l") for c in ("id", "k", "a", "s", "f")]),
        [
            column(nl, lambda i: i),
            column(nl, lambda i: NULL if i % 11 == 5 else i % 9),
            column(nl, lambda i: NULL if i % 7 == 3 else (i * 5) % 13),
            column(nl, lambda i: NULL if i % 10 == 9 else f"left-string-{i % 6}"),
            column(nl, lambda i: i % 3 == 0),
        ],
        nl,
    )
    right = Batch(
        Schema([Column(c, table="r") for c in ("id", "k", "a", "t", "g")]),
        [
            column(nr, lambda i: 1000 + i),
            column(nr, lambda i: NULL if i % 13 == 4 else (i * 7) % 40),
            column(nr, lambda i: NULL if i % 5 == 1 else (i * 3) % 13),
            column(nr, lambda i: NULL if i % 9 == 8 else f"t{i % 4}"),
            column(nr, lambda i: float(i % 4)),
        ],
        nr,
    )
    return left, right


#: residual id -> predicate (errors included: unknown and ambiguous refs)
RESIDUALS = {
    "left-only": Comparison(">", Col("l.a"), Literal(4)),
    "right-only": Comparison("<>", Col("r.t"), Literal("t2")),
    "right-only-bare": Comparison("<>", Col("t"), Literal("t2")),
    "both-sides-qualified": Comparison("<", Col("l.a"), Col("r.a")),
    "wide-string": Comparison("<>", Col("s"), Literal("left-string-3")).and_(
        Comparison(">=", Col("g"), Literal(1.0))
    ),
    "both-sides-bare": Comparison("<", Col("a"), Literal(3)),
    "unknown": Comparison("=", Col("l.zzz"), Literal(1)),
    "literal-only": Comparison("=", Literal(1), Literal(1)),
    "literal-only-false": Comparison("=", Literal(1), Literal(2)),
}

#: join id -> callable(left, right, residual)
JOINS = {
    "hash": lambda l, r, res: kernels.hash_join(l, r, ["l.k"], ["r.k"], res),
    "left-outer": lambda l, r, res: kernels.left_outer_hash_join(
        l, r, ["l.k"], ["r.k"], res
    ),
    "semi": lambda l, r, res: kernels.semi_join(l, r, ["l.k"], ["r.k"], res),
    "anti": lambda l, r, res: kernels.anti_join(l, r, ["l.k"], ["r.k"], res),
    "cross": lambda l, r, res: kernels.cross_join(l, r, res),
}

#: how the join runs: in memory, or through ``maybe_spill_hash_join``
#: (only the two spillable kernels divert)
MODES = ("inline", "spill")
SPILL_CAP_MB = 0.016


def join_cases():
    for join in JOINS:
        for residual in RESIDUALS:
            for mode in MODES:
                if mode == "spill" and join not in ("hash", "left-outer"):
                    continue
                yield join, residual, mode


def join_case_id(join, residual, mode) -> str:
    return f"{join}/{residual}/{mode}"


def observe_join(join: str, residual: str, mode: str):
    left, right = join_inputs()
    with tempfile.TemporaryDirectory(prefix="residual-golden-") as spill_dir:
        governor = (
            ResourceGovernor(memory_limit_mb=SPILL_CAP_MB, spill_dir=spill_dir)
            if mode == "spill"
            else None
        )
        with collect() as metrics, tracing() as trace, governed(governor):
            try:
                out = JOINS[join](left, right, RESIDUALS[residual])
            except ReproError as exc:
                return {"error": type(exc).__name__, "message": str(exc)}
    rows = out.to_relation().rows
    observed = {
        "rows": len(rows),
        "rows_sha1": sha1(list(rows)),
        "metrics": metrics.snapshot(),
        "spans": span_summary(trace),
    }
    if governor is not None:
        observed["peak_bytes"] = governor.peak_bytes
        observed["spill_count"] = governor.spill_count
    return observed


# --------------------------------------------------------------------- #
# What the governor is charged: peak_bytes under a non-binding cap
# --------------------------------------------------------------------- #


def run_accounted(db, sql: str):
    """``(result, governor)`` of one vectorized execution whose charges
    are accounted but never bind."""
    governor = ResourceGovernor(memory_limit_mb=NON_BINDING_MB)
    result = repro.connect(db, plan_cache=False).prepare(sql).execute(
        strategy="nested-relational-vectorized", governor=governor
    )
    return result, governor


def stored_copy(config: TpchConfig, directory: str):
    generate_stored(directory, config)
    return load_stored_database(directory)


SMALL = TpchConfig(scale_factor=0.001, seed=1234)


def observe_peaks(db):
    return {
        stem: run_accounted(db, query_text(stem))[1].peak_bytes
        for stem in FIGURE_STEMS
    }


#: the benchmark's own twelve executions (``benchmarks/layers``:
#: ``PLANNER_TEXTS`` — the constants of ``PAPER_QUERIES`` — and
#: ``SPILL_TEXTS``, on the SF 0.01, seed 2005 data)
BENCH = TpchConfig(scale_factor=0.01, seed=2005)
SPILL_Q23 = (1, 15, 4000, 25)
BENCH_TEXTS = {
    **{f"planner/{stem}": query_text(stem) for stem in FIGURE_STEMS},
    "spill/fig4_q1": query1("1992-01-01", "1992-05-01"),
    "spill/fig5_q2a": query2("any", *SPILL_Q23),
    "spill/fig6_q2b": query2("all", *SPILL_Q23),
    "spill/fig7_q3a": query3("all", "exists", "a", *SPILL_Q23),
    "spill/fig8_q3b": query3("all", "not exists", "b", 1, 3, 1000, 25),
    "spill/fig9_q3c": query3("any", "exists", "c", *SPILL_Q23),
}


def observe_bench(db):
    """Peak bytes, row order and bag of the benchmark's twelve texts."""
    observed = {}
    for name, sql in BENCH_TEXTS.items():
        result, governor = run_accounted(db, sql)
        observed[name] = {
            "peak_bytes": governor.peak_bytes,
            "rows": len(result),
            "rows_sha1": sha1(list(result.rows)),
            "bag_sha1": sha1(sorted(map(repr, result.rows))),
        }
    return observed


# --------------------------------------------------------------------- #
# Recording (at the parent commit) and the tests
# --------------------------------------------------------------------- #


def record() -> dict:
    paper_db = make_paper_db()
    tpch = tpch_nulls()
    golden = {"queries": {}, "joins": {}, "peak_bytes": {}}
    for stem in QUERY_STEMS:
        db = paper_db if stem == "query_q" else tpch
        for logic in LOGICS:
            golden["queries"][query_case_id(stem, logic)] = observe_query(
                db, stem, logic
            )
    for case in join_cases():
        golden["joins"][join_case_id(*case)] = observe_join(*case)
    golden["peak_bytes"]["memory"] = observe_peaks(generate(SMALL))
    with tempfile.TemporaryDirectory(prefix="residual-golden-store-") as work:
        golden["peak_bytes"]["stored"] = observe_peaks(
            stored_copy(SMALL, os.path.join(work, "small"))
        )
        golden["bench"] = {
            "memory": observe_bench(generate(BENCH)),
            "stored": observe_bench(stored_copy(BENCH, os.path.join(work, "bench"))),
        }
    return golden


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tpch_nulls_db():
    return tpch_nulls()


@pytest.mark.parametrize("logic", LOGICS)
@pytest.mark.parametrize("stem", QUERY_STEMS)
def test_query_matches_parent(golden, tpch_nulls_db, paper_db, stem, logic):
    db = paper_db if stem == "query_q" else tpch_nulls_db
    assert (
        observe_query(db, stem, logic)
        == golden["queries"][query_case_id(stem, logic)]
    )


@pytest.mark.parametrize(
    "join,residual,mode", list(join_cases()), ids=lambda v: v
)
def test_join_matches_parent(golden, join, residual, mode):
    assert (
        observe_join(join, residual, mode)
        == golden["joins"][join_case_id(join, residual, mode)]
    )


def test_golden_covers_the_interesting_joins(golden):
    """The recorded cases are not vacuous: residuals keep some pairs and
    drop others, the error cases are errors, the spill mode spilled."""
    joins = golden["joins"]
    assert joins["hash/unknown/inline"]["error"] == "SchemaError"
    assert "unknown column 'l.zzz'" in joins["hash/unknown/inline"]["message"]
    assert joins["cross/both-sides-bare/inline"]["error"] == "SchemaError"
    assert "ambiguous column 'a'" in joins["cross/both-sides-bare/inline"]["message"]
    plain = joins["hash/literal-only/inline"]["rows"]
    assert joins["hash/literal-only-false/inline"]["rows"] == 0
    for residual in ("left-only", "right-only", "both-sides-qualified", "wide-string"):
        assert 0 < joins[f"hash/{residual}/inline"]["rows"] < plain, residual
    for join in ("hash", "left-outer"):
        assert joins[f"{join}/wide-string/spill"]["spill_count"] >= 1, join


def test_peak_bytes_in_memory_match_parent(golden):
    assert observe_peaks(generate(SMALL)) == golden["peak_bytes"]["memory"]


def test_peak_bytes_stored_match_parent(golden, tmp_path):
    """On a memory-mapped store only gathered (heap) columns are charged
    — the charge a kernel that hands back ``np.memmap``-typed heap
    arrays would silently lose."""
    db = stored_copy(SMALL, str(tmp_path / "store"))
    observed = observe_peaks(db)
    assert observed == golden["peak_bytes"]["stored"]
    assert all(observed.values())


@pytest.mark.full_scale
@pytest.mark.parametrize("kind", ["memory", "stored"])
def test_benchmark_executions_match_parent(golden, tmp_path, kind):
    """The twelve executions ``benchmarks/layers`` times: peak bytes, row
    order and bag byte-for-byte the parent's, in RAM and on the store."""
    db = (
        generate(BENCH)
        if kind == "memory"
        else stored_copy(BENCH, str(tmp_path / "store"))
    )
    assert observe_bench(db) == golden["bench"][kind]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN_PATH}")
