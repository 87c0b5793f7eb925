"""Shared fixtures: the paper's running example and small databases."""

from __future__ import annotations

import pytest

import repro
from repro.engine import Column, Database, NULL


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden files under tests/golden/ with the "
             "current EXPLAIN / EXPLAIN ANALYZE output instead of "
             "comparing against them",
    )
    parser.addoption(
        "--full-scale",
        action="store_true",
        default=False,
        help="also run the tests marked full_scale: the minutes-long "
             "variants of tests tier-1 runs at a smaller scale factor "
             "(CI's pytest job passes this)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--full-scale"):
        return
    skip = pytest.mark.skip(reason="full-scale variant: pass --full-scale")
    for item in items:
        if "full_scale" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")


def make_paper_db() -> Database:
    """The relations R, S, T of the paper's Figure 1 (Section 3).

    R(A, B, C, D) with D the primary key; S(E, F, G, H, I) with I the
    key; T(J, K, L) with L the key.  Values copied verbatim, including
    the NULLs.
    """
    db = Database()
    db.create_table(
        "R",
        [Column("A"), Column("B"), Column("C"), Column("D", not_null=True)],
        [
            (1, 2, 3, 1),
            (2, 3, 2, 2),
            (5, 2, 3, 3),
            (NULL, NULL, 5, 4),
        ],
        primary_key="D",
    )
    db.create_table(
        "S",
        [
            Column("E"),
            Column("F"),
            Column("G"),
            Column("H"),
            Column("I", not_null=True),
        ],
        [
            (7, 5, 1, 5, 1),
            (2, 5, 2, 2, 2),
            (2, 5, 3, 4, 3),
            (4, 6, 3, NULL, 4),
        ],
        primary_key="I",
    )
    db.create_table(
        "T",
        [Column("J"), Column("K"), Column("L", not_null=True)],
        [
            (3, 3, 1),
            (NULL, 4, 2),
            (2, 2, 3),
        ],
        primary_key="L",
    )
    return db


@pytest.fixture(scope="session")
def paper_db() -> Database:
    return make_paper_db()


@pytest.fixture(scope="session")
def tiny_tpch() -> Database:
    """A small deterministic TPC-H instance shared across tests."""
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.002, seed=1234)
    )


@pytest.fixture(scope="session")
def tiny_tpch_nulls() -> Database:
    """Same as :func:`tiny_tpch` but with NULLs injected into the price
    columns — the data classical rewrites get wrong."""
    return repro.tpch.generate(
        repro.tpch.TpchConfig(
            scale_factor=0.002, seed=1234, inject_null_fraction=0.08
        )
    )


@pytest.fixture(scope="session")
def tiny_tpch_not_null() -> Database:
    """Same as :func:`tiny_tpch` with NOT NULL declared on the price
    columns (flips System A's plan, per the paper)."""
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.002, seed=1234, price_not_null=True)
    )


#: 150 orders / ~600 lineitems: the quadratic ``nested-iteration`` oracle
#: answers the paper's Query 1 in well under a second here and every
#: window the suite uses still returns dozens of rows.  The tests that
#: are oracle-bound run on these and keep their ``tiny_tpch*`` size
#: behind ``@pytest.mark.full_scale``.
MICRO_SCALE_FACTOR = 0.0001


@pytest.fixture(scope="session")
def micro_tpch() -> Database:
    """:func:`tiny_tpch` at :data:`MICRO_SCALE_FACTOR`."""
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=MICRO_SCALE_FACTOR, seed=1234)
    )


@pytest.fixture(scope="session")
def micro_tpch_nulls() -> Database:
    """:func:`tiny_tpch_nulls` at :data:`MICRO_SCALE_FACTOR`."""
    return repro.tpch.generate(
        repro.tpch.TpchConfig(
            scale_factor=MICRO_SCALE_FACTOR, seed=1234,
            inject_null_fraction=0.08,
        )
    )


@pytest.fixture(scope="session")
def micro_tpch_not_null() -> Database:
    """:func:`tiny_tpch_not_null` at :data:`MICRO_SCALE_FACTOR`."""
    return repro.tpch.generate(
        repro.tpch.TpchConfig(
            scale_factor=MICRO_SCALE_FACTOR, seed=1234, price_not_null=True
        )
    )


def run_traced(query, db, strategy="auto"):
    """``planner.run`` of what *strategy* resolves to, under a fresh
    tracing scope: ``(result, trace)``."""
    from repro.core.optimizer import resolve
    from repro.core.planner import run
    from repro.engine.trace import tracing

    with tracing() as trace:
        result = run(query, db, resolve(query, db, strategy))
    return result, trace
