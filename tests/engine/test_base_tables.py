"""A base table is its columns: building one builds no Python row.

``generate`` encodes every table once into its columns and keeps no
row tuple; a table builds its rows on the first row-level read, and an
index its buckets on the first probe.  So statistics and the vector
engine never build a row, the row engine builds exactly the tables it
scans, and a process forked after generation (as ``repro serve`` forks
its workers) answers from the columns it inherited, encoding nothing.
"""

from __future__ import annotations

import os
import pickle
import traceback

import pytest

import repro
from repro.core.stats import collect_stats
from repro.engine.vector import Batch
from repro.tpch import generate, query1

from ..core.test_explain_golden import PAPER_QUERIES
from .test_colstore import CONFIG

FIGURE_SQL = [p.values[1] for p in PAPER_QUERIES]


def built_rows(db):
    """The tables whose row tuple exists."""
    return {
        name for name, table in db.tables.items()
        if table.relation._rows_cache is not None
    }


def built_buckets(db):
    """The indexes whose buckets exist."""
    return {
        (name, key)
        for name, table in db.tables.items()
        for key, index in table.hash_indexes.items()
        if index._buckets is not None
    }


def figure_answers(db):
    """Each figure query's bag on the vector engine, in a fresh session."""
    session = repro.connect(db)
    return [
        repr(session.execute(sql, backend="vector").sorted().rows)
        for sql in FIGURE_SQL
    ]


@pytest.fixture
def db():
    db = generate(CONFIG)
    collect_stats(db)
    return db


def test_generating_builds_no_row_and_no_bucket(db):
    assert db.table("lineitem").hash_indexes  # the paper's indexes exist
    assert built_rows(db) == set()
    assert built_buckets(db) == set()


def test_a_vector_query_builds_no_row(db):
    figure_answers(db)
    assert built_rows(db) == set()
    assert built_buckets(db) == set()


def test_a_row_query_builds_exactly_the_tables_it_scans(db):
    sql = query1("1992-01-01", "1994-06-01")
    repro.connect(db).execute(sql, strategy="nested-relational", backend="row")
    assert built_rows(db) == {"orders", "lineitem"}
    repro.connect(db).execute(
        "select p_partkey from part where p_size > 10", backend="row"
    )
    assert built_rows(db) == {"orders", "lineitem", "part"}


def test_a_forked_child_answers_from_the_inherited_columns(db):
    """The child runs single-threaded off the fork and leaves through
    ``os._exit``, as a server worker does; encoding a table again
    (``Batch.from_relation``) raises there."""
    expected = figure_answers(db)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        status = 1
        try:
            os.close(read)

            def encode_again(relation):
                raise AssertionError("a base table was encoded again")

            Batch.from_relation = staticmethod(encode_again)
            answers = figure_answers(db)
            with os.fdopen(write, "wb") as out:
                pickle.dump((answers, sorted(built_rows(db))), out)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as handle:
        payload = handle.read()
    _pid, status = os.waitpid(pid, 0)
    assert status == 0
    answers, rows_built = pickle.loads(payload)
    assert answers == expected
    assert rows_built == []
