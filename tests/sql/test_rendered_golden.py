"""The SQL text every renderer target produces, pinned byte for byte.

For each input the golden file holds what ``render_sql`` (our own
parser), ``render_for(·, SQLITE)`` and ``render_for(·, DUCKDB)`` return,
or the class of the error each one raises.  The inputs are the ``SQL``
of every file in ``tests/fuzz_corpus/``, the six paper queries, the
generated cases of seeds 0–69 under both generator configs of
``tests/sql/test_unparse_external.py``, and a few hand-built shapes
that reach the spellings the other inputs do not (keyword identifiers,
boolean and date constants, non-finite floats).

The expected texts live in ``tests/golden/rendered_sql.json``;
regenerate after an intentional rendering change with::

    PYTHONPATH=src python -m pytest tests/sql/test_rendered_golden.py --update-golden
"""

from __future__ import annotations

import dataclasses
import datetime
import importlib
import json
import os

from repro.errors import ReproError
from repro.fuzz import FuzzConfig, generate_case
from repro.oracle import DUCKDB, SQLITE, render_for
from repro.sql import ast as A, parse
from repro.sql.unparse import render_sql
from repro.tpch import paper_query_suite

from ..core.test_explain_golden import GOLDEN_DIR

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "rendered_sql.json")
CORPUS_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "fuzz_corpus")

#: the two generator configs of ``test_unparse_external.py``
CONFIGS = {
    "default": {},
    "aggregate": dict(
        aggregate_probability=0.6,
        group_probability=0.5,
        disjunction_probability=0.4,
        root_group_probability=0.5,
    ),
}


def _with_where(sql: str, where: A.Predicate) -> A.SelectStmt:
    return dataclasses.replace(parse(sql), where=where)


def _shapes() -> dict:
    col = A.ColumnRef("t", "a")
    return {
        "keyword_column": A.SelectStmt(
            items=(A.SelectItem(expr=A.ColumnRef("t", "order"), star=False),),
            tables=(A.TableRef("t"),),
            where=None,
        ),
        "boolean_constants": _with_where(
            "select t.a from t",
            A.OrPred(
                A.ComparisonPred("=", col, A.Constant(True)),
                A.ComparisonPred("=", col, A.Constant(False)),
            ),
        ),
        "date_constant": _with_where(
            "select t.a from t",
            A.ComparisonPred("<", col, A.Constant(datetime.date(1995, 3, 14))),
        ),
        "infinite_float": _with_where(
            "select t.a from t",
            A.ComparisonPred("<", col, A.Constant(float("inf"))),
        ),
        "integer_division": parse(
            "select t.k from t where (t.a / 2) > 0.5 and t.b * 3 < 1e-05"
        ),
        "quantified_grouped": parse(
            "select t.k from t where t.a <> all "
            "(select s.b from s group by s.b having count(*) > 1)"
        ),
        "quantified_ordered": parse(
            "select t.k from t where t.a > some "
            "(select s.b from s order by s.b limit 2)"
        ),
        "connectives": parse(
            "select distinct t.k from t where not (t.a = 1 or t.b is null) "
            "and (t.a between 1 and 3 or t.b not in (1, 2)) "
            "order by t.k desc limit 5"
        ),
    }


def _inputs(db) -> dict:
    inputs = {}
    for filename in sorted(os.listdir(CORPUS_DIR)):
        if filename.startswith("test_") and filename.endswith(".py"):
            module = importlib.import_module(f"tests.fuzz_corpus.{filename[:-3]}")
            inputs[f"corpus/{filename[:-3]}"] = parse(module.SQL)
    for name, sql in paper_query_suite(db):
        inputs[f"paper/{name}"] = parse(sql)
    for config_name, overrides in CONFIGS.items():
        for seed in range(70):
            case = generate_case(FuzzConfig(iterations=1, seed=seed, **overrides), 0)
            inputs[f"generated/{config_name}/{seed}"] = case.stmt
    for name, stmt in _shapes().items():
        inputs[f"shape/{name}"] = stmt
    return inputs


def _rendered(render) -> object:
    try:
        return render()
    except ReproError as exc:  # the class is what the golden pins
        return {"error": type(exc).__name__}


def rendered_sql(db) -> dict:
    """Input name -> ``{"internal", "sqlite", "duckdb"}`` outputs."""
    return {
        name: {
            "internal": _rendered(lambda: render_sql(stmt)),
            "sqlite": _rendered(lambda: render_for(stmt, SQLITE)),
            "duckdb": _rendered(lambda: render_for(stmt, DUCKDB)),
        }
        for name, stmt in _inputs(db).items()
    }


def test_rendered_sql_matches_golden(micro_tpch, update_golden):
    text = json.dumps(rendered_sql(micro_tpch), indent=1, sort_keys=True) + "\n"
    if update_golden:
        with open(GOLDEN_PATH, "w") as handle:
            handle.write(text)
        return
    with open(GOLDEN_PATH) as handle:
        expected = handle.read()
    assert text == expected, (
        "rendered SQL drifted from tests/golden/rendered_sql.json; if the "
        "change is intentional, regenerate with pytest --update-golden"
    )
