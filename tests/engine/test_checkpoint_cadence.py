"""How often the row engine checks its governor, site by site.

A timeout or a cancellation is noticed at the next ``checkpoint``, so
the number of checkpoints an operator passes — and where — is part of
its behaviour: fewer would let a deadline overshoot further, more would
slow the governed path.  With a governor that counts ``check`` calls by
site installed, each case below records its counts:

* the hash join's build over 0, 1, 2047, 2048, 2049 and 4096 rows;
* a governed left outer hash join, with and without a residual;
* the fused single-pass scan over 1 500 rows, two and three levels;
* one cold execution of every row preset over the six figure queries
  (SF 0.001) and the paper's Query Q;
* the second execution of every row preset over the six figure queries,
  which reads each T_i from the reduce memo and each hash build kept on
  it: a kept build passes its entry ``hash-build`` checkpoint only, as
  it does no per-row work.

The counts must equal ``tests/golden/checkpoint_cadence.json``.  The
fused scans also pin a digest of their output rows.  Regenerate after
an intentional change of cadence with::

    PYTHONPATH=src python -m pytest tests/engine/test_checkpoint_cadence.py --update-golden
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

import pytest

import repro
from repro.core.blocks import LinkSpec
from repro.core.linking import SetPredicate
from repro.core.query_tree import FusedLink
from repro.core.selection import fused_linking_selection
from repro.engine import NULL, Column, Schema
from repro.engine.expressions import Col, Comparison
from repro.engine.governor import ResourceGovernor, governed
from repro.engine.operators import left_outer_hash_join
from repro.engine.operators.joins import _build
from repro.engine.relation import Relation
from repro.errors import PlanError

from ..core.test_explain import QUERY_Q
from ..core.test_explain_golden import GOLDEN_DIR, PAPER_QUERIES

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "checkpoint_cadence.json")

ROW_PRESETS = [
    "nested-relational",
    "nested-relational-sorted",
    "nested-relational-optimized",
    "nested-relational-bottomup",
    "nested-relational-positive-rewrite",
]

BUILD_SIZES = [0, 1, 2047, 2048, 2049, 4096]


class CountingGovernor(ResourceGovernor):
    """A governor without limits that counts its checks by site."""

    def __init__(self):
        super().__init__(timeout_ms=600_000)
        self.sites: Counter = Counter()

    def check(self, site: str = "operator") -> None:
        self.sites[site] += 1
        super().check(site)


def _counted(run) -> dict:
    governor = CountingGovernor()
    with governed(governor):
        run()
    return dict(sorted(governor.sites.items()))


def _digest(rows) -> str:
    return hashlib.sha256(repr(list(rows)).encode()).hexdigest()[:16]


def _keyed(n: int, table: str) -> Relation:
    """*n* rows ``(k, v)``: ``k`` cycles through 0..96 with a NULL every
    tenth row, ``v`` is the row number."""
    schema = Schema([Column("k", table=table), Column("v", table=table)])
    return Relation(
        schema, [(NULL if i % 10 == 9 else i % 97, i) for i in range(n)]
    )


def _join_cases() -> dict:
    left = _keyed(1500, "l")
    right = _keyed(3000, "r")
    residual = Comparison("<", Col("l.v"), Col("r.v"))
    cases = {}
    for name, pred in (("no_residual", None), ("residual", residual)):
        cases[f"left_outer_hash_join/{name}"] = _counted(
            lambda: left_outer_hash_join(left, right, ["l.k"], ["r.k"], pred)
        )
    return cases


def _fused_input(levels: int, n: int = 1500) -> Relation:
    """A joined relation over *levels* blocks: each block's rid and one
    value column, with NULL rids where an outer join padded."""
    columns, rows = [], []
    for level in range(levels):
        columns += [Column(f"_rid{level}", table=f"b{level}"),
                    Column("x", table=f"b{level}")]
    for i in range(n):
        row = []
        for level in range(levels):
            rid = i // (4 ** (levels - 1 - level))
            if level and i % (7 + level) == 0:
                rid = NULL
            row += [rid, (i * (level + 3)) % 11]
        rows.append(tuple(row))
    return Relation(Schema(columns), rows[::-1])


def _fused_node(levels: int) -> FusedLink:
    """``x < some (...)`` at even levels, ``x >= all (...)`` at odd."""
    quantified = [("some", "<") if level % 2 == 0 else ("all", ">=")
                  for level in range(levels - 1)]
    links = tuple(
        LinkSpec(quantifier, outer_ref=f"b{level}.x", theta=theta,
                 inner_ref=f"b{level + 1}.x")
        for level, (quantifier, theta) in enumerate(quantified)
    )
    predicates = tuple(SetPredicate(q, theta) for q, theta in quantified)
    return FusedLink(
        rid_refs=tuple(f"b{level}._rid{level}" for level in range(levels)),
        links=links,
        predicates=predicates,
        names=(),
    )


def _fused_cases() -> dict:
    cases = {}
    for levels in (2, 3):
        joined, node = _fused_input(levels), _fused_node(levels)
        out = []
        sites = _counted(
            lambda: out.append(fused_linking_selection(joined, node))
        )
        cases[f"fused_scan/{levels}_levels"] = {
            "checkpoints": sites,
            "rows_out": len(out[0]),
            "rows": _digest(out[0].rows),
        }
    return cases


def _preset_cases(tpch, paper_db) -> dict:
    queries = {p.values[0]: (p.values[1], tpch) for p in PAPER_QUERIES}
    queries["query_q"] = (QUERY_Q, paper_db)
    cases = {}
    for preset in ROW_PRESETS:
        for stem, (sql, db) in queries.items():
            prepared = repro.connect(db).prepare(sql)
            try:
                cases[f"{preset}/{stem}"] = _counted(
                    lambda: prepared.execute(strategy=preset)
                )
            except PlanError:
                cases[f"{preset}/{stem}"] = "PlanError"
    return cases


def _warm_preset_cases(tpch) -> dict:
    cases = {}
    for preset in ROW_PRESETS:
        for p in PAPER_QUERIES:
            stem, sql = p.values
            prepared = repro.connect(tpch).prepare(sql)
            try:
                prepared.execute(strategy=preset)
            except PlanError:
                cases[f"warm/{preset}/{stem}"] = "PlanError"
                continue
            cases[f"warm/{preset}/{stem}"] = _counted(
                lambda: prepared.execute(strategy=preset)
            )
    return cases


@pytest.fixture(scope="module")
def tpch():
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
    )


def test_checkpoint_cadence_matches_golden(tpch, paper_db, update_golden):
    observed = {
        **{
            f"build/{n}": _counted(lambda: _build(_keyed(n, "r"), [0]))
            for n in BUILD_SIZES
        },
        **_join_cases(),
        **_fused_cases(),
        **_preset_cases(tpch, paper_db),
        **_warm_preset_cases(tpch),
    }
    if update_golden:
        with open(GOLDEN_PATH, "w") as f:
            json.dump(observed, f, indent=1, sort_keys=True)
            f.write("\n")
        pytest.skip("golden updated")
    with open(GOLDEN_PATH) as f:
        expected = json.load(f)
    assert observed.keys() == expected.keys()
    for case in expected:
        assert observed[case] == expected[case], case


def test_build_checkpoints_once_plus_once_per_2048_rows():
    """The build checks on entry and before its 2048th, 4096th, ... row."""
    for n in BUILD_SIZES:
        sites = _counted(lambda: _build(_keyed(n, "r"), [0]))
        assert sites == {"hash-build": 1 + n // 2048}, n
