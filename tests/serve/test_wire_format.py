"""The wire golden: ``POST /query`` bodies, byte for byte.

The server encodes a result in one pass of the C JSON encoder over the
engine's own row tuples, in the worker process that executed it (DESIGN
§16 "Result egress").  The encoder it replaced — every row rebuilt as a
list, every cell through a Python function, then ``json.dumps`` — lives
on here, and only here, as the *reference definition* of the format:
NULL is ``null`` and never a value, the JSON-native scalars are
themselves, anything else is its ``str``.

The rows never reach the test process as Python objects (``submit()``
resolves to the encoded ``body``), so each reference body is built from
an in-process execution of the same SQL — or, for the hand-built
relations, from the relation the fixture held when ``start()`` forked.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import urllib.request

import pytest

import repro
from repro import strategies as registry
from repro.engine import NULL, Column, Relation, Schema
from repro.engine.types import is_null
from repro.engine.vector import Batch
from repro.serve import QueryServer
from repro.serve import server as server_module
from repro.serve import worker as worker_module
from repro.tpch import query1, query2, query3

WIRE_KEYS = ("tenant", "columns", "rows", "row_count", "elapsed_ms")
#: what ``submit()`` resolves to: ``rows`` lives only in ``body``
SUBMIT_KEYS = {
    "tenant", "columns", "row_count", "elapsed_ms", "encode_ms", "body",
}
SQL = "select o_orderkey, o_totalprice from orders where o_totalprice > 1000"

#: the paper's Figures 4-9 at the benchmark's constants
FIGURE_QUERIES = {
    "fig4_q1": query1("1992-01-01", "1994-06-01"),
    "fig5_q2a": query2("any", 1, 30, 6000, 25),
    "fig6_q2b": query2("all", 1, 30, 6000, 25),
    "fig7_q3a": query3("all", "exists", "a", 1, 30, 6000, 25),
    "fig8_q3b": query3("all", "not exists", "b", 1, 30, 6000, 25),
    "fig9_q3c": query3("any", "exists", "c", 1, 30, 6000, 25),
}


# --------------------------------------------------------------------- #
# The reference definition
# --------------------------------------------------------------------- #


def legacy_json_value(value):
    """One SQL cell as a JSON value (NULL -> null; exotic -> str)."""
    if is_null(value):
        return None
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def legacy_body(payload, rows) -> bytes:
    """What the per-cell encoder answered for the same response: the
    scalar fields of *payload* around *rows*, the engine's row tuples."""
    cells = [[legacy_json_value(v) for v in row] for row in rows]
    wire = {
        key: cells if key == "rows" else payload[key] for key in WIRE_KEYS
    }
    return json.dumps(wire, separators=(",", ":")).encode("utf-8")


# --------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def db():
    return repro.tpch.generate(repro.tpch.TpchConfig(scale_factor=0.001))


@pytest.fixture
def canned():
    """A registered strategy answering whatever relation the test set."""
    holder = {}

    class Canned:
        def execute(self, query, db):
            return holder["relation"]

    registry.register("canned", replace=True,
                      description="test stub: a hand-built result")(Canned)
    yield holder
    registry.unregister("canned")


def submit_all(db, requests):
    """``submit()`` each (sql, overrides) on one server, in order."""

    async def main():
        server = QueryServer(db, port=0, workers=2)
        await server.start()
        try:
            payloads = [
                await server.submit(sql, tenant="wire", overrides=overrides)
                for sql, overrides in requests
            ]
            await server.drain()
            return payloads, server.stats()
        finally:
            await server.stop()

    return asyncio.run(main())


def every_kind() -> Relation:
    """NULL in every column kind the vector backend has (``i8``, ``f8``,
    ``str``, ``bool``, ``obj``), plus the cells JSON has no type for."""
    schema = Schema((
        Column("i", "t"), Column("f", "t"), Column("s", "t"),
        Column("b", "t"), Column("d", "t"), Column("big", "t"),
    ))
    return Relation(schema, [
        (1, 1.5, "aé\"\\\n", True, datetime.date(1994, 6, 1), 2 ** 70),
        (NULL, NULL, NULL, NULL, NULL, NULL),
        (-7, -0.0, "", False, datetime.date(1992, 1, 1), -(2 ** 64)),
        (0, 1e300, "null", True, NULL, 3),
    ])


# --------------------------------------------------------------------- #
# Byte identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["row", "vector"])
def test_figure_query_bodies_match_the_reference(db, backend):
    payloads, _stats = submit_all(
        db, [(sql, {"backend": backend}) for sql in FIGURE_QUERIES.values()]
    )
    session = repro.connect(db)
    for (figure, sql), payload in zip(FIGURE_QUERIES.items(), payloads):
        assert payload["row_count"] > 0, figure
        rows = session.execute(sql, backend=backend).rows
        assert payload["body"] == legacy_body(payload, rows), figure


def test_hand_built_bodies_match_the_reference(db, canned):
    kinds = every_kind()
    through_vector = Batch.from_relation(kinds).to_relation()
    assert [c.kind for c in Batch.from_relation(kinds).columns] == [
        "i8", "f8", "str", "bool", "obj", "obj"
    ]
    assert through_vector.rows == kinds.rows
    cases = {
        "every kind": kinds,
        "every kind, out of a batch": through_vector,
        "empty": Relation(kinds.schema),
        "zero columns": Relation(Schema(()), [(), ()]),
    }
    wires = {}
    for name, relation in cases.items():
        canned["relation"] = relation
        (payload,), _stats = submit_all(db, [(SQL, {"strategy": "canned"})])
        assert payload["body"] == legacy_body(payload, relation.rows), name
        wires[name] = json.loads(payload["body"])
        assert wires[name]["row_count"] == len(relation), name
        assert len(wires[name]["rows"]) == len(relation), name
    # NULL is null on the wire — not "NULL", not 0, not ""
    rows = wires["every kind"]["rows"]
    assert rows[1] == [None] * 6
    assert rows[0][4:] == ["1994-06-01", 2 ** 70]
    assert rows[3][2] == "null" and rows[3][4] is None
    assert wires["zero columns"]["rows"] == [[], []]


# --------------------------------------------------------------------- #
# Who encodes, where, and how often
# --------------------------------------------------------------------- #


def test_the_hook_is_not_entered_for_native_cells(db, monkeypatch):
    """The encoding function itself, in this process: the ``default=``
    hook costs nothing for a result of ints, floats and strings."""
    calls, hook = [], worker_module._json_value

    def counting(value):
        calls.append(value)
        return hook(value)

    def encoded(relation):
        wire = {"tenant": "wire", "columns": list(relation.schema.names),
                "rows": relation.rows, "row_count": len(relation),
                "elapsed_ms": 0.0}
        assert worker_module.encode_body(wire) == legacy_body(
            wire, relation.rows)

    monkeypatch.setattr(worker_module, "_json_value", counting)
    plain = repro.connect(db).execute(SQL)
    assert len(plain) > 0
    encoded(plain)
    assert calls == []  # int and float cells only: the C encoder's own
    encoded(every_kind())
    # a row of six NULLs and one more, two dates; big ints are JSON-native
    assert sum(1 for v in calls if is_null(v)) == 7
    assert sum(1 for v in calls if isinstance(v, datetime.date)) == 2
    assert len(calls) == 9


def test_submit_return_shape_and_encode_ms(db, canned):
    """``submit()`` resolves to the scalar wire fields plus ``body`` —
    the whole wire object, encoded, the only place ``rows`` exists — and
    ``encode_ms``; ``/stats`` totals the timings per tenant."""
    canned["relation"] = every_kind()
    (plain, exotic), stats = submit_all(
        db, [(SQL, {}), (SQL, {"strategy": "canned"})]
    )
    for payload in (plain, exotic):
        assert set(payload) == SUBMIT_KEYS
        assert isinstance(payload["body"], bytes)
        wire = json.loads(payload["body"])
        assert list(wire) == list(WIRE_KEYS)
        assert {key: wire[key] for key in WIRE_KEYS if key != "rows"} == {
            key: payload[key] for key in WIRE_KEYS if key != "rows"
        }
        assert len(wire["rows"]) == payload["row_count"]
        assert payload["encode_ms"] >= 0.0
    assert json.loads(exotic["body"])["rows"][1] == [None] * 6
    expected = repro.connect(db).execute(SQL)
    assert plain["body"] == legacy_body(plain, expected.rows)
    tenant = stats["tenants"]["wire"]
    assert tenant["encode_ms"] == pytest.approx(
        plain["encode_ms"] + exotic["encode_ms"], abs=2e-3
    )
    assert tenant["busy_ms"] == pytest.approx(
        plain["elapsed_ms"] + exotic["elapsed_ms"], abs=2e-3
    )


def test_the_loop_thread_frames_bytes_and_never_encodes_rows(db, monkeypatch):
    """Over a real socket: ``_handle_connection`` is handed the 200 body
    as ``bytes``, and no ``json.dumps`` of a result runs in the front
    process — the workers inherit the recorder below, but what they
    record lands in their copy of the list."""
    framed, dumped = [], []
    real_frame, real_dumps = server_module.response_bytes, json.dumps

    def recording_frame(status, payload, keep_alive=True):
        framed.append((status, type(payload)))
        return real_frame(status, payload, keep_alive)

    def recording_dumps(obj, **kwargs):
        if isinstance(obj, dict) and "rows" in obj:
            dumped.append(obj)
        return real_dumps(obj, **kwargs)

    monkeypatch.setattr(server_module, "response_bytes", recording_frame)
    monkeypatch.setattr(json, "dumps", recording_dumps)

    def post(url, payload):
        req = urllib.request.Request(
            url, data=real_dumps(payload).encode(), method="POST")
        with urllib.request.urlopen(req) as reply:
            return reply.status, reply.read()

    async def main():
        server = QueryServer(db, port=0, workers=2)
        await server.start()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, post, f"http://127.0.0.1:{server.port}/query",
                {"sql": SQL, "tenant": "wire"},
            )
        finally:
            await server.drain()
            await server.stop()

    status, body = asyncio.run(main())
    assert status == 200
    assert framed == [(200, bytes)]
    assert dumped == []
    wire = json.loads(body)
    # None round-trips to null
    assert body == legacy_body(wire, wire["rows"])
    assert wire["row_count"] == len(wire["rows"]) > 0
    expected = repro.connect(db).execute(SQL)
    assert body == legacy_body(wire, expected.rows)
