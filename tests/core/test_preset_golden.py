"""The row strategies are physically what they were: for each of the
five row-side ``nested-relational-*`` presets and the five row
baselines, on each of the six figure queries (SF 0.001) plus the
paper's Query Q, the multiset of operator spans, every per-execution
``Metrics`` counter and the result rows (content *and* order) match
``tests/golden/presets.json``.  ``nested-iteration`` is pinned on
Query Q only: it takes seconds per figure query.  A query a strategy's
guard refuses is pinned as ``"PlanError"``.

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

from .test_explain import QUERY_Q
from .test_explain_golden import GOLDEN_DIR, PAPER_QUERIES

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "presets.json")

ROW_PRESETS = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-relational-bottomup",
    "nested-relational-positive-rewrite",
]

ROW_BASELINES = [
    "system-a-native",
    "classical-unnesting",
    "aggregate-rewrite",
    "count-rewrite",
    "boolean-aggregate",
]

QUERY_STEMS = [p.values[0] for p in PAPER_QUERIES] + ["query_q"]

#: (strategy, query stem) pairs the golden file pins
CASES = [
    (strategy, stem)
    for strategy in ROW_PRESETS + ROW_BASELINES
    for stem in QUERY_STEMS
] + [("nested-iteration", "query_q")]


@pytest.fixture(scope="module")
def databases(paper_db):
    tpch = repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
    )
    dbs = {p.values[0]: (p.values[1], tpch) for p in PAPER_QUERIES}
    dbs["query_q"] = (QUERY_Q, paper_db)
    return dbs


def observe(strategy: str, sql: str, db):
    """What one execution physically did, in golden-file form."""
    query = repro.compile_sql(sql, db)
    with collect() as metrics:
        try:
            result, trace = run_traced(query, db, strategy)
        except PlanError:
            return "PlanError"
    return {
        "spans": sorted(
            span.name
            for span in trace.spans()
            if span.kind in ("operator", "phase")
        ),
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
