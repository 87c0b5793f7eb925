"""EXPLAIN text for every ``nested-relational*`` registry name over the
query shapes the six figure goldens never reach: a two-child tree, a
disjunction (marks + residual), an uncorrelated nested subquery (the
virtual Cartesian product), an aggregate link, a non-adjacent
correlation, a disjunction under a negative link (σ* over marks), a θ
correlation (no push-down) and a three-level all-positive run (what
``fuse-links`` / ``υ-pushdown`` / ``⋉`` shape), beside the six figure
queries and the paper's Query Q.  A query a preset's guard refuses is pinned as
``"PlanError"``.

The expected texts live in ``tests/golden/explain_presets.json``;
regenerate after an intentional plan change with::

    PYTHONPATH=src python -m pytest tests/core/test_explain_presets_golden.py --update-golden
"""

from __future__ import annotations

import json
import os

import pytest

import repro
from repro import strategies
from repro.errors import PlanError

from .test_explain import QUERY_Q
from .test_explain_golden import GOLDEN_DIR, PAPER_QUERIES

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "explain_presets.json")

PRESETS = [
    name for name in strategies.names() if name.startswith("nested-relational")
]

#: shapes over the paper's R, S, T (Figure 1), keyed by golden stem
SHAPES = {
    "query_q": QUERY_Q,
    "tree_two_children": """
        select R.B, R.D from R
        where R.A > all (select S.E from S where S.G = R.D)
          and not exists (select T.L from T where T.K = R.C)
    """,
    "disjunction": """
        select R.B, R.D from R
        where R.A = 1
           or R.B in (select S.E from S where S.G = R.D)
           or not exists (select T.L from T where T.K = R.C and T.J > 2)
    """,
    "uncorrelated_nested": """
        select R.B, R.D from R
        where R.B not in
          (select S.E from S
           where S.F = 5 and S.H > all (select T.J from T where T.K = S.G))
    """,
    "aggregate_link": """
        select R.B, R.D from R
        where R.A > (select count(S.E) from S where S.G = R.D)
    """,
    "non_adjacent": """
        select R.B, R.D from R
        where R.B in
          (select S.E from S
           where S.G = R.D
             and exists (select T.L from T where T.K = R.C and T.J = S.H))
    """,
    "nested_disjunction": """
        select R.B, R.D from R
        where R.B not in
          (select S.E from S
           where S.G = R.D
             and (S.H > all (select T.J from T where T.K = S.G)
                  or not exists (select T.L from T where T.J = S.H)))
    """,
    "theta_correlation": """
        select R.B, R.D from R
        where exists (select S.I from S where S.G = R.D and S.H < R.A)
    """,
    "three_level_run": """
        select R.B, R.D from R
        where R.B in
          (select S.E from S
           where S.G = R.D
             and S.H < some (select T.J from T where T.K = S.G))
    """,
}


@pytest.fixture(scope="module")
def cases(paper_db, tiny_tpch):
    out = {p.values[0]: (p.values[1], tiny_tpch) for p in PAPER_QUERIES}
    out.update({stem: (sql, paper_db) for stem, sql in SHAPES.items()})
    return out


def plan_text(preset: str, sql: str, db):
    prepared = repro.connect(db).prepare(sql)
    try:
        return prepared.explain(strategy=preset).operators.splitlines()
    except PlanError:
        return "PlanError"


def test_update_golden(cases, update_golden):
    if not update_golden:
        pytest.skip("only runs under --update-golden")
    golden = {
        preset: {stem: plan_text(preset, *case) for stem, case in cases.items()}
        for preset in PRESETS
    }
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")


@pytest.mark.parametrize("preset", PRESETS)
def test_explain_matches_golden(cases, preset):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(golden) == PRESETS
    assert sorted(golden[preset]) == sorted(cases)
    for stem, case in cases.items():
        assert plan_text(preset, *case) == golden[preset][stem], (preset, stem)
