"""A rewrite baseline's filter phase, unwound by an error, leaves its
span closed and marked aborted.

``count-rewrite``'s ``count-filter`` and ``aggregate-rewrite``'s
``agg-filter`` phases open their span through ``op_span``; a filter
loop that raises must not leave it to the tracing scope's ``finish``,
which would close it unmarked and let the cardinality-contract checks
judge its partial counters.
"""

import pytest

import repro
from repro.baselines import agg_rewrite, count_rewrite
from repro.engine import Column, Database
from repro.engine.trace import trace_invariant_violations, tracing
from repro.errors import TypeError_

ALL_SQL = "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)"


@pytest.fixture()
def db():
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a", not_null=True)],
        [(1, 5), (2, 2), (3, 7)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b", not_null=True)],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (5, 2, 1)],
        primary_key="k",
    )
    return d


def _incomparable(*_args):
    raise TypeError_("incomparable pair")


@pytest.mark.parametrize(
    "module,strategy,phase",
    [
        (count_rewrite, "count-rewrite", "count-filter"),
        (agg_rewrite, "aggregate-rewrite", "agg-filter"),
    ],
)
def test_raising_filter_leaves_its_span_aborted(
    db, monkeypatch, module, strategy, phase
):
    prepared = repro.connect(db).prepare(ALL_SQL)
    monkeypatch.setattr(module, "sql_compare", _incomparable)
    with tracing() as trace:
        with pytest.raises(TypeError_):
            prepared.execute(strategy=strategy)
    (span,) = trace.find(phase)
    assert span.closed and span.aborted
    assert span.attrs["aborted"] == "TypeError_"
    (root,) = trace.roots
    assert root.name == "execute" and root.aborted
    assert trace_invariant_violations(trace) == []
