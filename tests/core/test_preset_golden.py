"""The strategies are physically what they were: for each of the five
row-side ``nested-relational-*`` presets, ``nested-relational-vectorized``
and the five row baselines, on each of the six figure queries (SF 0.001),
the paper's Query Q and the query shapes over the paper's R, S, T (those
of ``test_explain_presets_golden`` plus two that reach the uncorrelated
link's σ* and mark), the multiset of operator and phase spans — each as
its name, cardinality contract and attributes — every per-execution
``Metrics`` counter and the result rows (content *and* order) match
``tests/golden/presets.json``.  ``nested-iteration`` is pinned on the
paper-database queries only: it takes seconds per figure query.  A query
a strategy's guard refuses is pinned as ``"PlanError"``.

Regenerate after an intentional physical-plan change with::

    PYTHONPATH=src python -m pytest tests/core/test_preset_golden.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

import repro
from ..conftest import run_traced
from repro.engine.metrics import collect
from repro.errors import PlanError

from .test_explain_golden import GOLDEN_DIR, PAPER_QUERIES
from .test_explain_presets_golden import SHAPES

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "presets.json")

ROW_PRESETS = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-relational-bottomup",
    "nested-relational-positive-rewrite",
    "nested-relational-vectorized",
]

ROW_BASELINES = [
    "system-a-native",
    "classical-unnesting",
    "aggregate-rewrite",
    "count-rewrite",
    "boolean-aggregate",
]

#: queries over the paper's R, S, T, keyed by golden stem
PAPER_DB_SHAPES = {
    **SHAPES,
    # σ* of an uncorrelated link: the S block's ALL test pads under NOT IN
    "uncorrelated_pseudo": """
        select R.B, R.D from R
        where R.B not in
          (select S.E from S
           where S.G = R.D
             and S.H > all (select T.J from T where T.J > 1))
    """,
    # the mark of an uncorrelated link, combined by R's residual
    "uncorrelated_mark": """
        select R.B, R.D from R
        where R.A = 1 or R.B in (select S.E from S where S.F = 5)
    """,
}

QUERY_STEMS = [p.values[0] for p in PAPER_QUERIES] + list(PAPER_DB_SHAPES)

#: (strategy, query stem) pairs the golden file pins
CASES = [
    (strategy, stem)
    for strategy in ROW_PRESETS + ROW_BASELINES
    for stem in QUERY_STEMS
] + [("nested-iteration", stem) for stem in PAPER_DB_SHAPES]


@pytest.fixture(scope="module")
def databases(paper_db):
    tpch = repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
    )
    dbs = {p.values[0]: (p.values[1], tpch) for p in PAPER_QUERIES}
    dbs.update((stem, (sql, paper_db)) for stem, sql in PAPER_DB_SHAPES.items())
    return dbs


def observe(strategy: str, sql: str, db):
    """What one execution physically did, in golden-file form."""
    query = repro.compile_sql(sql, db)
    with collect() as metrics:
        try:
            result, trace = run_traced(query, db, strategy)
        except PlanError:
            return "PlanError"
    spans = [
        [span.name, span.contract, sorted(
            [key, str(value)] for key, value in span.attrs.items()
        )]
        for span in trace.spans()
        if span.kind in ("operator", "phase")
    ]
    return {
        "spans": sorted(spans, key=json.dumps),
        "counters": metrics.snapshot(),
        "rows": len(result),
        "rows_sha1": hashlib.sha1(
            repr(list(result.rows)).encode("utf-8")
        ).hexdigest(),
    }


def test_update_golden(databases, update_golden):
    if not update_golden:
        pytest.skip("only runs under --update-golden")
    golden = {}
    for strategy, stem in CASES:
        golden.setdefault(strategy, {})[stem] = observe(
            strategy, *databases[stem]
        )
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("strategy,stem", CASES)
def test_preset_matches_golden(databases, strategy, stem):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert observe(strategy, *databases[stem]) == golden[strategy][stem]
