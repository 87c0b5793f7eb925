"""Spill-to-disk: correctness parity, trace spans, fault injection.

The six paper queries must return identical results whether the
governor's budget forces Grace-style spilling or the whole plan runs in
memory — and every ``kind='spill'`` span must satisfy the v4 trace
schema and the trace invariants.  The parity test's ``full_scale`` case
does so at SF 0.1, on a store far larger than its cap.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.bench.figures import (
    Q1_OUTER_FRACTIONS,
    Q23_OUTER_FRACTIONS,
    Q23_PARTSUPP_FRACTION,
    QUANTITY_EQ,
)
from repro.engine.colstore import load_stored_database
from repro.engine.governor import ResourceGovernor, governed
from repro.engine.spill import maybe_spill_hash_join
from repro.engine.trace import (
    KIND_SPILL,
    trace_invariant_violations,
    validate_trace_dict,
)
from repro.errors import SpillError
from repro.tpch import (
    TpchConfig,
    generate_stored,
    pick_availqty,
    pick_date_window,
    pick_size_window,
    query1,
    query2,
    query3,
)

#: small enough to force spilling on every join-heavy paper query at
#: sf 0.002, large enough that scan outputs still fit
CAP_MB = 0.2

#: the full-scale parity case: a ≈ 240 MB store under an 8 MB cap,
#: where query1's join spills
SF01 = TpchConfig(scale_factor=0.1, seed=2005)
SF01_CAP_MB = 8.0


@pytest.fixture(scope="module")
def stored_db(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("spill-store") / "tpch")
    generate_stored(
        path, TpchConfig(scale_factor=0.002, seed=1234), chunk_rows=500
    )
    return load_stored_database(path)


@pytest.fixture(scope="session")
def sf01_stored_db(tmp_path_factory):
    """The SF 0.1 column store, written once per session."""
    path = str(tmp_path_factory.mktemp("sf01-store") / "tpch")
    generate_stored(path, SF01)
    return load_stored_database(path)


def _paper_queries(db, orders, parts, partsupps, quantity):
    """The six figure queries, their blocks sized by target row counts."""
    lo_d, hi_d = pick_date_window(db, orders)
    lo_s, hi_s = pick_size_window(db, parts)
    availqty = pick_availqty(db, partsupps)
    return [
        ("query1", query1(lo_d, hi_d)),
        ("query2a", query2("any", lo_s, hi_s, availqty, quantity)),
        ("query2b", query2("all", lo_s, hi_s, availqty, quantity)),
        ("query3a", query3("all", "exists", "a", lo_s, hi_s, availqty, quantity)),
        ("query3b", query3("all", "not exists", "b", lo_s, hi_s, availqty, quantity)),
        ("query3c", query3("any", "exists", "c", lo_s, hi_s, availqty, quantity)),
    ]


@pytest.fixture(scope="module")
def six_queries(stored_db):
    return _paper_queries(stored_db, 40, 30, 60, 25)


def _smallest_paper_point(db):
    """The six queries at the first point of each paper series, with
    Section 5's block sizes taken as fractions of *db*'s tables."""
    rows = {t: len(db.relation(t)) for t in ("orders", "part", "partsupp")}
    return _paper_queries(
        db,
        int(Q1_OUTER_FRACTIONS[0] * rows["orders"]),
        int(Q23_OUTER_FRACTIONS[0] * rows["part"]),
        int(Q23_PARTSUPP_FRACTION * rows["partsupp"]),
        QUANTITY_EQ,
    )


def _spill_spans(trace):
    return [s for s in trace.spans() if s.kind == KIND_SPILL]


@pytest.mark.parametrize("scale", [
    "sf0.002",
    pytest.param("sf0.1", marks=pytest.mark.full_scale),
])
def test_six_query_parity_spilling_vs_not(scale, request, tmp_path):
    """The stored, capped, spilling vector engine returns what the
    uncapped row engine returns at the same scale, ≥1 query spills, and
    every trace is valid.  At SF 0.002 the row engine reads the
    in-memory tables the store was written from; at SF 0.1 it reads the
    store itself, which ``test_colstore.py::test_roundtrip_every_table``
    pins equal to what ``generate`` builds."""
    if scale == "sf0.002":
        stored = request.getfixturevalue("stored_db")
        judge_db = request.getfixturevalue("tiny_tpch")
        queries = request.getfixturevalue("six_queries")
        cap_mb = CAP_MB
    else:
        stored = judge_db = request.getfixturevalue("sf01_stored_db")
        queries = _smallest_paper_point(stored)
        cap_mb = SF01_CAP_MB
    plain = repro.connect(judge_db)
    governed_session = repro.connect(
        stored, memory_limit_mb=cap_mb, spill_dir=str(tmp_path)
    )
    total_spans = 0
    for name, sql in queries:
        expected = plain.execute(
            sql, strategy="nested-relational", backend="row"
        )
        got, trace = governed_session.prepare(sql).trace(
            strategy="nested-relational", backend="vector"
        )
        assert got == expected, name
        spans = _spill_spans(trace)
        total_spans += len(spans)
        for span in spans:
            assert span.counters.get("bytes_spilled", 0) > 0, name
            assert span.counters.get("partitions", 0) >= 2, name
        assert validate_trace_dict(trace.to_dict()) == [], name
        assert trace_invariant_violations(trace) == [], name
    assert total_spans >= 1
    # every temp partition directory was cleaned up after its pass
    assert os.listdir(str(tmp_path)) == []


def test_nest_spill_partitions_on_the_key(stored_db, six_queries, tmp_path):
    """A cap low enough that the nest grouping spills (CAP_MB only
    reaches query1's join).  The partitions are cut on the ids of the
    rid key; the same queries record the same ``spill-nest`` passes —
    one nested in the other, two partitions each — as when every
    nesting attribute was factorized, and the bags match uncapped."""
    spilling = {"query2a": [2, 2], "query2b": [2, 2], "query3a": [2, 2]}
    plain = repro.connect(stored_db)
    capped = repro.connect(
        stored_db, memory_limit_mb=0.1, spill_dir=str(tmp_path)
    )
    for name, sql in six_queries:
        if name == "query3b":
            continue  # its 26-wide nest exhausts this budget outright
        expected = plain.execute(
            sql, strategy="nested-relational", backend="vector"
        )
        got, trace = capped.prepare(sql).trace(
            strategy="nested-relational", backend="vector"
        )
        assert got == expected, name
        nest_spans = [
            s for s in _spill_spans(trace) if s.name == "spill-nest"
        ]
        assert [
            s.counters["partitions"] for s in nest_spans
        ] == spilling.get(name, []), name
        for span in nest_spans:
            assert span.attrs["by"].count(",") >= 5, name  # N1, not the key
        assert trace_invariant_violations(trace) == [], name
    assert os.listdir(str(tmp_path)) == []


def test_nest_spill_writes_only_what_the_nest_reads(
    stored_db, six_queries, tmp_path, monkeypatch
):
    """The scattered batch is N1 plus the verdict's operands (the member
    rid and the linked attribute), not the child's other columns."""
    from repro.engine import spill

    widths = []
    write_partition = spill._write_partition

    def recording(tmp, tag, batch, idx):
        widths.append(len(batch.columns))
        return write_partition(tmp, tag, batch, idx)

    monkeypatch.setattr(spill, "_write_partition", recording)
    capped = repro.connect(
        stored_db, memory_limit_mb=0.1, spill_dir=str(tmp_path)
    )
    _result, trace = capped.prepare(dict(six_queries)["query2a"]).trace(
        strategy="nested-relational", backend="vector"
    )
    spans = _spill_spans(trace)
    assert spans and {s.name for s in spans} == {"spill-nest"}
    n1 = max(s.attrs["by"].count(",") + 1 for s in spans)
    assert widths and max(widths) <= n1 + 2


def test_spill_spans_validate_against_schema(stored_db, six_queries, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import json

    schema_path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
        "schemas", "trace.schema.json",
    )
    with open(schema_path) as fh:
        schema = json.load(fh)
    session = repro.connect(
        stored_db, memory_limit_mb=CAP_MB, spill_dir=str(tmp_path)
    )
    _result, trace = session.prepare(six_queries[0][1]).trace(
        strategy="nested-relational", backend="vector"
    )
    assert _spill_spans(trace)
    jsonschema.validate(trace.to_dict(), schema)


def test_governor_accounts_spilled_bytes(stored_db, six_queries, tmp_path):
    gov = ResourceGovernor(memory_limit_mb=CAP_MB, spill_dir=str(tmp_path))
    session = repro.connect(stored_db)
    with governed(gov):
        session.execute(
            six_queries[0][1], strategy="nested-relational", backend="vector"
        )
    assert gov.spill_count >= 1
    assert gov.spilled_bytes > 0


def test_no_spill_without_spill_dir(stored_db, six_queries):
    """Budget alone (no spill_dir) keeps the hard-error semantics."""
    gov = ResourceGovernor(memory_limit_mb=CAP_MB)
    assert not gov.should_spill(10**9)


def test_spill_hook_inert_without_governor(stored_db):
    batch = stored_db.relation("orders").stored_batch()
    assert (
        maybe_spill_hash_join(
            batch, batch, ["o_orderkey"], ["o_orderkey"], None, outer=False
        )
        is None
    )


def test_spill_io_fault_cleanup_and_typed_error(
    stored_db, six_queries, tmp_path, monkeypatch
):
    """REPRO_FAULT=spill_io: typed error out, no temp files left behind."""
    monkeypatch.setenv("REPRO_FAULT", "spill_io")
    session = repro.connect(
        stored_db, memory_limit_mb=CAP_MB, spill_dir=str(tmp_path)
    )
    with pytest.raises(SpillError, match="injected spill write failure"):
        session.execute(
            six_queries[0][1], strategy="nested-relational", backend="vector"
        )
    # governed cleanup: the failed pass removed its temp directory
    assert os.listdir(str(tmp_path)) == []


def test_clearing_the_spill_io_fault_restores_spilling(
    stored_db, six_queries, tmp_path, monkeypatch
):
    """The error is typed (SpillError), and clearing the fault restores
    normal spilling in the same session."""
    monkeypatch.setenv("REPRO_FAULT", "spill_io")
    session = repro.connect(
        stored_db, memory_limit_mb=CAP_MB, spill_dir=str(tmp_path)
    )
    with pytest.raises(SpillError):
        session.execute(
            six_queries[0][1], strategy="nested-relational", backend="vector"
        )
    assert os.listdir(str(tmp_path)) == []
    monkeypatch.delenv("REPRO_FAULT")
    plain = repro.connect(stored_db).execute(
        six_queries[0][1], strategy="nested-relational", backend="vector"
    )
    result, trace = session.prepare(six_queries[0][1]).trace(
        strategy="nested-relational", backend="vector"
    )
    assert result == plain
    assert _spill_spans(trace)
    assert os.listdir(str(tmp_path)) == []
