"""The row backend reads T_i from the session's reduce memo.

One :class:`~repro.core.plancache.ReduceMemo` serves both Algorithm 1
backends.  These tests pin, on ``backend="row"``: that a cached image
changes no answer (content *or* order); which executions read the memo
and which never do; what is part of the key (logic mode, backend kind)
and what flushes it (the catalog version); what is inside and outside a
cached image; that the memo is bounded by retained cells; and that
nothing an execution does — any preset, either logic mode, a timeout
half-way — mutates an image, or a build kept on it, that other
executions will be handed.
"""

from __future__ import annotations

import pytest

import repro
from repro import strategies
from repro.core import plancache
from repro.core.plancache import ReduceMemo
from repro.core.reduce import (
    execute_join_plan,
    plan_block_join,
    reduce_relation,
    reduce_step,
)
from repro.engine import NULL, Column, Database
from repro.engine.context import scope
from repro.engine.governor import ResourceGovernor
from repro.engine.operators.joins import _build
from repro.engine.relation import Relation
from repro.errors import QueryTimeoutError, ReproError
from repro.options import ExecutionOptions
from repro.oracle import make_adapter

from .test_explain import QUERY_Q
from .test_explain_golden import PAPER_QUERIES
from .test_preset_golden import ROW_PRESETS

FIGURE_SQL = {p.values[0]: p.values[1] for p in PAPER_QUERIES}

BASELINES = [
    name
    for name in strategies.names()
    if not name.startswith("nested-relational")
]

#: small queries over the paper's R/S/T; every baseline accepts one
SMALL_QUERIES = [
    QUERY_Q,
    "select R.B from R where R.A > 0 and R.B in "
    "(select S.E from S where S.F = 5 and S.G = R.D)",
    "select R.B from R where R.D > 0 and R.D > all "
    "(select S.I from S where S.F = 5 and S.G = R.D)",
]

#: a flat query under ``auto`` ties on cost and runs a baseline; these
#: tests are about the nested relational row path, so they name it
ROW = {"strategy": "nested-relational"}

GROUPED = (
    "select R.B from R where R.A > 0 and R.B in "
    "(select S.E from S where S.F > 0 group by S.E having count(*) > 1)"
)


@pytest.fixture(scope="module")
def tpch():
    return repro.tpch.generate(
        repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)
    )


@pytest.fixture(scope="module")
def all_queries(tpch, paper_db):
    queries = {stem: (sql, tpch) for stem, sql in FIGURE_SQL.items()}
    queries["query_q"] = (QUERY_Q, paper_db)
    return queries


@pytest.fixture
def nullable_db():
    db = Database()
    db.create_table(
        "t",
        [Column("a", not_null=True), Column("b")],
        [(1, 1), (2, NULL), (3, 2), (4, NULL)],
    )
    db.create_table("u", [Column("x")], [(2,), (3,), (9,)])
    return db


def blocks_of(prepared):
    return list(prepared.query.root.walk())


def reduce_spans(trace):
    return [s for s in trace.spans() if s.name.startswith("reduce[T")]


class TimesOutAfter(ResourceGovernor):
    """A governor whose deadline passes at its *checks*-th checkpoint."""

    def __init__(self, checks: int):
        super().__init__(timeout_ms=600_000)
        self.checks_left = checks

    def check(self, site: str = "operator") -> None:
        self.checks_left -= 1
        if self.checks_left < 0:
            self._deadline = 0.0
        super().check(site)


# --------------------------------------------------------------------- #
# a hit changes no answer
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("stem", list(FIGURE_SQL) + ["query_q"])
def test_cold_warm_and_uncached_agree_in_content_and_order(all_queries, stem):
    sql, db = all_queries[stem]
    cached = repro.connect(db).prepare(sql)
    uncached = repro.connect(db, plan_cache=False).prepare(sql)
    cold = cached.execute(backend="row")
    warm = cached.execute(backend="row")
    assert cached.session.cache_stats.reduce_hits > 0
    reference = uncached.execute(backend="row")
    assert uncached.session.cache_stats.reduce_misses == 0
    # list equality: the same rows in the same order, hence the same bag
    assert cold.rows == reference.rows
    assert warm.rows == reference.rows


@pytest.mark.parametrize("stem", list(FIGURE_SQL))
def test_second_execution_reads_every_block_from_the_memo(tpch, stem):
    """This PR's mechanism: on a warm session no σ_Δi runs."""
    session = repro.connect(tpch)
    prepared = session.prepare(FIGURE_SQL[stem])
    blocks = len(blocks_of(prepared))
    _result, first = prepared.trace(backend="row")
    assert session.cache_stats.reduce_misses == blocks
    assert session.cache_stats.reduce_hits == 0
    assert any(
        child.name == "Filter"
        for span in reduce_spans(first)
        for child in span.walk()
    )
    _result, second = prepared.trace(backend="row")
    assert session.cache_stats.reduce_hits == blocks
    assert session.cache_stats.reduce_misses == blocks
    spans = reduce_spans(second)
    assert len(spans) == blocks
    for span in spans:
        assert [s.name for s in span.walk()] == [span.name]
    # what a block reduced to is still on its span
    assert [s.counters["rows_out"] for s in spans] == [
        s.counters["rows_out"] for s in reduce_spans(first)
    ]


# --------------------------------------------------------------------- #
# who reads the memo
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("strategy", BASELINES)
def test_baselines_neither_read_nor_fill_the_memo(paper_db, strategy):
    """``nested-iteration`` is the fuzzer's ground truth: it must never
    be handed an image a nested relational execution built."""
    session = repro.connect(paper_db)
    accepted = 0
    for sql in SMALL_QUERIES:
        # a nested relational execution leaves images behind ...
        session.execute(sql, strategy="nested-relational")
        before = session.cache_stats.snapshot()
        try:
            for _ in range(2):
                session.execute(sql, strategy=strategy)
        except ReproError:
            continue  # the baseline does not cover this query shape
        accepted += 1
        after = session.cache_stats.snapshot()
        # ... which the baseline neither hits nor misses
        assert after["reduce_hits"] == before["reduce_hits"]
        assert after["reduce_misses"] == before["reduce_misses"]
    assert accepted, f"{strategy} accepted none of the probe queries"


@pytest.mark.parametrize("preset", ROW_PRESETS)
def test_every_row_preset_hits_on_its_second_execution(paper_db, preset):
    session = repro.connect(paper_db)
    prepared = session.prepare(SMALL_QUERIES[1])
    first = prepared.execute(strategy=preset)
    assert session.cache_stats.reduce_hits == 0
    second = prepared.execute(strategy=preset)
    assert session.cache_stats.reduce_hits == len(blocks_of(prepared))
    assert second.rows == first.rows


def test_a_block_that_is_one_unfiltered_table_is_not_memoized(paper_db):
    """Query Q's innermost block has no local predicate: its T_i is T
    itself, and the row backend keeps no second list of T's rows."""
    session = repro.connect(paper_db)
    prepared = session.prepare(QUERY_Q)
    assert len(blocks_of(prepared)) == 3
    for _ in range(2):
        prepared.execute(backend="row")
    assert session.cache_stats.reduce_misses == 2
    assert session.cache_stats.reduce_hits == 2
    assert len(session._cache._reduced) == 2


# --------------------------------------------------------------------- #
# what is in the key
# --------------------------------------------------------------------- #


def test_logic_modes_occupy_different_entries_and_disagree(nullable_db):
    """NOT (b = 1) keeps a NULL b only under 2VL (Libkin): one plan, two
    images."""
    session = repro.connect(nullable_db)
    prepared = session.prepare("select a from t where not (b = 1)")
    two_valued = ExecutionOptions(logic="2vl")
    for _ in range(2):  # the second pass answers from the memo
        assert prepared.execute(**ROW).rows == [(3,)]
        assert prepared.execute(**ROW, options=two_valued).rows == [
            (2,), (3,), (4,),
        ]
    stats = session.cache_stats
    assert (stats.reduce_misses, stats.reduce_hits) == (2, 2)
    keys = list(session._cache._reduced)
    assert sorted(key[2] for key in keys) == ["2vl", "3vl"]
    assert keys[0][:2] == keys[1][:2]  # the same plan on the same backend


def test_a_row_entry_and_a_vector_entry_never_collide(tpch):
    session = repro.connect(tpch)
    prepared = session.prepare(FIGURE_SQL["fig4_q1"])
    blocks = len(blocks_of(prepared))
    on_rows = prepared.execute(backend="row")
    on_batches = prepared.execute(backend="vector")
    assert session.cache_stats.reduce_misses == 2 * blocks
    assert session.cache_stats.reduce_hits == 0
    images = {
        key[1]: image for key, (image, _cells) in session._cache._reduced.items()
    }
    assert set(images) == {"row", "vector"}
    assert isinstance(images["row"], Relation)
    assert not isinstance(images["vector"], Relation)
    assert on_rows == on_batches
    assert prepared.execute(backend="row").rows == on_rows.rows
    assert session.cache_stats.reduce_hits == blocks


def test_a_catalog_version_bump_invalidates(nullable_db):
    session = repro.connect(nullable_db)
    sql = "select a from t where a > 1"
    session.execute(sql, **ROW)
    assert len(session._cache._reduced) == 1
    nullable_db.create_table("v", [Column("y")], [(1,)])
    session.execute(sql, **ROW)
    assert session.cache_stats.invalidations == 1
    assert session.cache_stats.reduce_hits == 0
    assert session._cache._reduced_cells == sum(
        cells for _image, cells in session._cache._reduced.values()
    )


# --------------------------------------------------------------------- #
# what is inside an image
# --------------------------------------------------------------------- #


def test_a_grouped_subquery_is_aggregated_outside_the_image(paper_db):
    session = repro.connect(paper_db)
    prepared = session.prepare(GROUPED)
    cold = prepared.execute(backend="row")
    warm = prepared.execute(backend="row")
    uncached = repro.connect(paper_db, plan_cache=False).execute(
        GROUPED, backend="row"
    )
    assert cold.rows == warm.rows == uncached.rows == [(2,), (2,)]
    grouped_block = blocks_of(prepared)[1]
    assert grouped_block.group_by
    with scope(reduce_cache=session._cache):
        memo = ReduceMemo(plan_block_join(grouped_block), "row")
    assert memo.state == "hit"
    image = memo.image(lambda: pytest.fail("a hit builds nothing"))
    # σ_{F>0}(S) as joined: every S tuple, all of S's columns, no _rid
    assert len(image) == 4
    assert image.schema.names == paper_db.relation("S").schema.names


# --------------------------------------------------------------------- #
# the memo is bounded by what it retains
# --------------------------------------------------------------------- #


def test_distinct_constants_stay_under_the_cell_bound(tpch, monkeypatch):
    """Ad-hoc row traffic: every constant is a new T_i.  Retained cells
    stay under the bound, oldest images go first, ``evictions`` only
    grows."""
    orders = tpch.relation("orders")
    bound = 4 * len(orders) * len(orders.schema) // 3
    monkeypatch.setattr(plancache, "_MAX_REDUCED_CELLS", bound)
    session = repro.connect(tpch)
    cache = session._cache
    evictions = []
    prices = sorted(orders.column_values("o_totalprice"))
    for cutoff in prices[:: len(prices) // 40]:
        session.execute(
            f"select o_orderkey from orders where o_totalprice >= {cutoff}",
            **ROW,
        )
        retained = sum(cells for _image, cells in cache._reduced.values())
        assert retained == cache._reduced_cells <= bound
        evictions.append(cache.stats.evictions)
    assert evictions == sorted(evictions)
    assert evictions[-1] > 0
    assert 0 < len(cache._reduced) < len(evictions)
    # the newest image is the one still there
    assert list(cache._reduced)[-1][0].count(repr(cutoff)) == 1


def test_an_image_larger_than_the_bound_is_not_stored(tpch, monkeypatch):
    monkeypatch.setattr(plancache, "_MAX_REDUCED_CELLS", 50)
    session = repro.connect(tpch)
    sql = "select n_name from nation where n_nationkey < 3"
    session.execute(sql, **ROW)  # 3 rows x 4 columns: kept
    kept = dict(session._cache._reduced)
    assert len(kept) == 1
    for _ in range(2):
        session.execute(
            "select o_orderkey from orders where o_totalprice > 0", **ROW
        )
    assert session._cache._reduced == kept
    assert session.cache_stats.evictions == 0
    assert session.cache_stats.reduce_misses == 3


# --------------------------------------------------------------------- #
# images are shared: nothing mutates them
# --------------------------------------------------------------------- #


def test_no_execution_mutates_a_cached_image(all_queries):
    """All five row presets, both logic modes and executions a timeout
    stops half-way, over one warm session per database: afterwards every
    cached image is row for row the fresh, uncached T_i, rid included,
    and every build kept on it is a fresh build of its rows."""
    two_valued = ExecutionOptions(logic="2vl")
    sessions = {}
    for sql, db in all_queries.values():
        session = sessions.setdefault(id(db), repro.connect(db))
        prepared = session.prepare(sql)
        for _round in range(2):
            for preset in ROW_PRESETS:
                for options in (None, two_valued):
                    try:
                        prepared.execute(strategy=preset, options=options)
                    except ReproError:
                        pass  # the preset's guard refuses this query
        timed_out = 0
        for checks in (2, 5, 9, 14, 30):
            for preset in ROW_PRESETS[:3]:
                try:
                    prepared.execute(
                        strategy=preset, governor=TimesOutAfter(checks)
                    )
                except QueryTimeoutError:
                    timed_out += 1
        assert timed_out, "no execution was stopped mid-way"

    checked_builds = 0
    for sql, db in all_queries.values():
        session = sessions[id(db)]
        for block in session.prepare(sql).query.root.walk():
            step = reduce_step(block)
            rid = None if step.grouped else step.rid
            for logic in ("3vl", "2vl"):
                with scope(reduce_cache=session._cache, logic=logic):
                    memo = ReduceMemo(step.join, "row", rid)
                    fresh = (
                        execute_join_plan(step.join, db)
                        if step.grouped
                        else reduce_relation(step, db)
                    )
                if step.join.is_bare_scan:
                    assert memo.state == "miss"
                    continue
                assert memo.state == "hit", (block.index, logic)
                image = memo.image(lambda: pytest.fail("hit"))
                assert image.schema.names == fresh.schema.names
                assert image.rows == fresh.rows
                checked_builds += _assert_builds_are_fresh(image)
    assert checked_builds, "no execution kept a build"


def _assert_builds_are_fresh(image) -> int:
    """Each build kept on *image* equals a fresh build of its rows on
    the same key positions; returns how many it keeps."""
    kept = image.kept_builds() or {}
    for positions, table in kept.items():
        rebuilt = _build(Relation(image.schema, image.rows), positions)
        assert table == rebuilt, positions
    return len(kept)


#: a NOT EXISTS whose T_i, σ_{quantity > 25}(lineitem), is 2 949 rows at
#: SF 0.001: more than one build-loop checkpoint apart
LARGE_BUILD = (
    "select o_orderkey from orders where o_orderkey < 400 and not exists "
    "(select l_orderkey from lineitem "
    "where l_quantity > 25 and l_orderkey = o_orderkey)"
)


class SiteLog(ResourceGovernor):
    """A governor without limits that lists the sites it checks."""

    def __init__(self):
        super().__init__(timeout_ms=600_000)
        self.sites = []

    def check(self, site: str = "operator") -> None:
        self.sites.append(site)
        super().check(site)


def test_a_build_a_timeout_stops_is_never_kept(tpch):
    log = SiteLog()
    repro.connect(tpch).prepare(LARGE_BUILD).execute(**ROW, governor=log)
    builds = [i for i, site in enumerate(log.sites) if site == "hash-build"]
    assert len(builds) >= 2, "the build loop passed no checkpoint"
    session = repro.connect(tpch)
    prepared = session.prepare(LARGE_BUILD)
    # the build's entry checkpoint passes, the next one stops it
    with pytest.raises(QueryTimeoutError, match="hash-build"):
        prepared.execute(**ROW, governor=TimesOutAfter(builds[1]))
    images = [image for image, _cells in session._cache._reduced.values()]
    large = [image for image in images if len(image) > 2048]
    assert len(large) == 1
    assert not large[0].kept_builds()
    # judged by SQLite: the adapter cross_check runs, read for its rows
    with make_adapter("sqlite", tpch) as sqlite:
        want, _dialect_sql, _seconds = sqlite.execute_text(LARGE_BUILD)
    got = prepared.execute(**ROW)
    assert sorted(got.rows) == sorted(want)
    assert _assert_builds_are_fresh(large[0]) == 1
