"""Rows the row engine hands to the trusted constructor are well formed.

The row operators build their output lists themselves and hand them to
:meth:`~repro.engine.relation.Bag.adopt`, which neither copies nor
checks them.  Here that constructor is swapped for a wrapper that
checks what it is handed — a list no relation holds yet, of tuples of
the schema's width — and the five row presets run under it, in both
logic modes, over the six figure queries (SF 0.001) and Query Q, every
query shape of ``test_explain_presets_golden`` and the linking-operator
matrix.  Each result, rows in order, must equal the unwrapped run's.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro
from repro.engine.relation import Bag, Relation
from repro.errors import PlanError
from repro.options import ExecutionOptions

from ..core.test_explain import QUERY_Q
from ..core.test_explain_golden import PAPER_QUERIES
from ..core.test_explain_presets_golden import SHAPES
from .test_checkpoint_cadence import ROW_PRESETS
from .test_vector import LINKING_MATRIX

LOGICS = {"3vl": None, "2vl": ExecutionOptions(logic="2vl")}


@pytest.fixture(scope="module")
def tpch():
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
    )


@pytest.fixture(scope="module")
def queries(tpch, paper_db):
    out = {p.values[0]: (p.values[1], tpch) for p in PAPER_QUERIES}
    out.update({f"shape/{stem}": (sql, paper_db) for stem, sql in SHAPES.items()})
    out.update(
        {f"matrix/{p.id}": (p.values[0], paper_db) for p in LINKING_MATRIX}
    )
    out["query_q"] = (QUERY_Q, paper_db)
    return out


def _run_all(queries) -> dict:
    """Every (preset, logic, query) on a fresh session: rows in order,
    or ``"PlanError"`` where the preset's guard refuses the query."""
    results = {}
    for stem, (sql, db) in queries.items():
        prepared = repro.connect(db).prepare(sql)
        for preset in ROW_PRESETS:
            for logic, options in LOGICS.items():
                try:
                    rows = prepared.execute(
                        strategy=preset, options=options
                    ).rows
                except PlanError:
                    rows = "PlanError"
                results[preset, logic, stem] = rows
    return results


@pytest.fixture
def checked_adopt(monkeypatch):
    """Swap the trusted constructor for one that checks its input;
    yields the number of adoptions per relation class.

    A list that any relation already holds — one ``Relation(schema,
    rows)`` copied into or one adopted before — may not be adopted."""
    trusted = Bag.__dict__["adopt"].__func__
    copying = Relation.__init__
    held = {}  # id -> list, kept alive so no id is reused while checking
    calls: Counter = Counter()

    def copied(self, schema, rows=()):
        copying(self, schema, rows)
        held[id(self.rows)] = self.rows

    def checked(cls, schema, rows):
        assert type(rows) is list, type(rows)
        assert id(rows) not in held, "a list a relation holds was adopted"
        held[id(rows)] = rows
        width = len(schema)
        for row in rows:
            assert type(row) is tuple, type(row)
            assert len(row) == width, (len(row), width)
        calls[cls.__name__] += 1
        return trusted(cls, schema, rows)

    monkeypatch.setattr(Relation, "__init__", copied)
    monkeypatch.setattr(Bag, "adopt", classmethod(checked))
    yield calls


def test_adopted_rows_are_tuples_of_the_schema_width(queries, request):
    expected = _run_all(queries)
    calls = request.getfixturevalue("checked_adopt")
    assert _run_all(queries) == expected
    assert calls["Relation"] and calls["NestedRelation"]
    assert any(rows != "PlanError" and rows for rows in expected.values())
