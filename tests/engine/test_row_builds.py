"""A row equi-join builds once per T_i; a warm execution only probes.

The row backend hands Algorithm 1 each block's ``T_i`` as a
:class:`~repro.engine.relation.BuildKeepingRelation`: the reduce memo
keeps it with its rid, and the hash table an equi-join builds on it
(``joins._build``) is kept on it.  This pins where a row build lives
and dies, and that sharing it changes no answer:

* a warm round of the six figure queries makes no rid tuple and runs
  no build loop on a ``T_i``, under ``auto`` and under plain
  ``nested-relational``;
* a bare-scan block is not memoized, so its ``T_i`` is built on anew
  per execution;
* no base table, on a RAM database or a memory-mapped store, holds a
  build;
* an image the reduce memo evicts takes its builds with it;
* a kept build passes only its entry checkpoint and charges what the
  build did;
* fifty generated queries over one database, in one session, under the
  five row presets, probe each other's builds and still answer what
  ``nested-iteration`` answers.
"""

from __future__ import annotations

import gc
import weakref

import pytest

import repro
from repro.core import backend as row_backend
from repro.core import reduce as reduce_module
from repro.core.backend import RowBackend
from repro.core.plancache import _MAX_REDUCED_CELLS
from repro.engine import NULL, Column, Schema
from repro.engine.colstore import load_stored_database
from repro.engine.governor import governed
from repro.engine.metrics import collect
from repro.engine.operators import joins
from repro.engine.relation import BuildKeepingRelation, Relation
from repro.errors import PlanError
from repro.fuzz.datagen import random_database_spec
from repro.fuzz.generator import FuzzConfig, QueryGenerator, case_rng
from repro.fuzz.runner import FuzzCase, sorted_rows
from repro.tpch import TpchConfig, generate, generate_stored

from ..core.test_explain import QUERY_Q
from ..core.test_explain_golden import PAPER_QUERIES
from .test_checkpoint_cadence import ROW_PRESETS, CountingGovernor

FIGURE_SQL = [p.values[1] for p in PAPER_QUERIES]
SMALL = TpchConfig(scale_factor=0.001, seed=1234)


@pytest.fixture(scope="module")
def tpch():
    return generate(SMALL)


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("store"))
    generate_stored(directory, SMALL)
    return load_stored_database(directory)


class RowReducePath:
    """Records, per execution round, each T_i the row backend hands
    Algorithm 1, each hash table an equi-join builds on, and how many
    rid columns were numbered."""

    def __init__(self, monkeypatch):
        self.reduced = []
        self.builds = []
        self.rids = 0
        # everything seen is held, so no id is reused across rounds
        self._seen = []
        reduce_all = RowBackend.reduce_all
        build = joins._build

        def recorded_reduce_all(backend, steps, db):
            out = reduce_all(backend, steps, db)
            self.reduced.extend(out.values())
            return out

        def recorded_build(right, right_idx):
            table = build(right, right_idx)
            self.builds.append((right, table))
            return table

        monkeypatch.setattr(RowBackend, "reduce_all", recorded_reduce_all)
        monkeypatch.setattr(joins, "_build", recorded_build)
        for module in (reduce_module, row_backend):
            with_rid = module.with_rid

            def counted(*args, _inner=with_rid, **kwargs):
                self.rids += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(module, "with_rid", counted)

    def round(self, run):
        """Run *run*; return the T_i and the build tables it used that
        an earlier round did not, and the rid columns it numbered."""
        before_reduced = [id(rel) for rel in self.reduced]
        before_tables = [id(table) for _right, table in self.builds]
        self.reduced.clear()
        self.builds.clear()
        self.rids = 0
        run()
        self._seen += self.reduced + self.builds
        new_reduced = [
            rel for rel in self.reduced if id(rel) not in before_reduced
        ]
        new_tables = [
            (right, table)
            for right, table in self.builds
            if id(table) not in before_tables
        ]
        return new_reduced, new_tables, self.rids


def figure_round(session, strategy):
    return [
        session.execute(sql, backend="row", strategy=strategy).rows
        for sql in FIGURE_SQL
    ]


@pytest.mark.parametrize("strategy", ["auto", "nested-relational"])
def test_a_warm_figure_round_reduces_and_builds_nothing(
    tpch, monkeypatch, strategy
):
    session = repro.connect(tpch)
    path = RowReducePath(monkeypatch)
    cold_rows = []
    reduced, built, rids = path.round(
        lambda: cold_rows.extend(figure_round(session, strategy))
    )
    assert reduced and built and rids
    assert all(isinstance(rel, BuildKeepingRelation) for rel in reduced)
    # every build side in these plans is a T_i
    assert all(
        any(right is rel for rel in reduced) for right, _table in built
    )
    warm_rows = []
    reduced, built, rids = path.round(
        lambda: warm_rows.extend(figure_round(session, strategy))
    )
    assert warm_rows == cold_rows
    assert path.builds, "the figures' equi-joins ran"
    assert (reduced, built, rids) == ([], [], 0)


def test_a_bare_scan_block_builds_per_execution(paper_db, monkeypatch):
    """Query Q's innermost block is T itself: its T_i is made and built
    on anew per execution, while the other blocks' are not."""
    session = repro.connect(paper_db)
    prepared = session.prepare(QUERY_Q)
    path = RowReducePath(monkeypatch)
    run = lambda: prepared.execute(backend="row", strategy="nested-relational")
    path.round(run)
    reduced, built, rids = path.round(run)
    assert len(reduced) == 1 and rids == 1
    (bare,) = reduced
    assert type(bare) is Relation
    assert bare.schema.names[-1] == "_rid3"
    assert built and all(right is bare for right, _table in built)


@pytest.mark.parametrize("where", ["memory", "stored"])
def test_no_base_table_holds_a_build(tpch, stored, where):
    db = tpch if where == "memory" else stored
    session = repro.connect(db)
    for _round in range(2):
        figure_round(session, "nested-relational")
    for name in db.tables:
        assert db.relation(name).kept_builds() is None, name


def keeping(images):
    """Weak references to the *images* that keep a build, each build
    held by nothing but its image."""
    refs = []
    for image in images:
        builds = image.kept_builds()
        if builds:
            for table in builds.values():
                assert gc.get_referrers(table) == [builds]
            refs.append(weakref.ref(image))
    return refs


def test_an_evicted_image_takes_its_builds_with_it(tpch):
    session = repro.connect(tpch)
    figure_round(session, "nested-relational")
    cache = session._cache
    images = [image for image, _cells in cache._reduced.values()]
    refs = keeping(images)
    assert refs and all(ref() is not None for ref in refs)
    evictions = cache.stats.evictions
    # one image the size of the whole budget pushes every other one out
    cache.store_reduced(("filler",), object(), _MAX_REDUCED_CELLS)
    assert cache.stats.evictions - evictions == len(images)
    del images
    gc.collect()
    assert all(ref() is None for ref in refs)


def _keyed(n: int) -> BuildKeepingRelation:
    schema = Schema([Column("k", table="r"), Column("v", table="r")])
    return BuildKeepingRelation.adopt(
        schema, [(NULL if i % 10 == 9 else i % 97, i) for i in range(n)]
    )


@pytest.mark.parametrize("n", [0, 1, 2049, 4096])
def test_a_kept_build_checks_once_and_charges_what_it_built(n):
    rel = _keyed(n)
    charged = []
    for _pass in range(2):
        governor = CountingGovernor()
        governor.memory_limit_bytes = 1 << 40  # charged, never breached
        with collect() as metrics, governed(governor):
            table = joins._build(rel, [0])
        charged.append(
            (metrics.snapshot(), governor.peak_bytes, table)
        )
        sites = governor.sites
    cold, warm = charged
    assert warm[0] == cold[0] and warm[1] == cold[1]
    assert warm[2] is cold[2]
    assert dict(sites) == {"hash-build": 1}
    assert rel.kept_builds() == {(0,): cold[2]}
    # a plain relation keeps nothing
    plain = Relation(rel.schema, rel.rows)
    assert joins._build(plain, [0]) == cold[2]
    assert plain.kept_builds() is None


def test_generated_queries_share_one_session():
    """Fifty generated queries over one database in one session, each
    under the five row presets: the reduce memo hands one query's
    ``T_i`` — and the builds kept on it — to the next execution that
    reduces the same block, and each answer is judged against
    ``nested-iteration``."""
    config = FuzzConfig(seed=31, max_rows=24, null_rate=0.3)
    spec = random_database_spec(
        case_rng(config.seed, 0), max_rows=config.max_rows,
        null_rate=config.null_rate, domain=config.domain,
    )
    db = spec.build()
    generator = QueryGenerator(config)
    session = repro.connect(db)
    oracle = repro.connect(db, plan_cache=False)
    judged = 0
    for i in range(50):
        stmt = generator.generate(case_rng(config.seed, i), spec)
        sql = FuzzCase(stmt, spec).sql
        want = sorted_rows(oracle.execute(sql, strategy="nested-iteration"))
        for preset in ROW_PRESETS:
            try:
                got = session.execute(sql, strategy=preset)
            except PlanError:
                # a rule's guard refuses this query; the plain driver
                # accepts every query
                assert preset != "nested-relational", sql
                continue
            assert sorted_rows(got) == want, (preset, sql)
            judged += 1
    assert judged > 150
    assert session.cache_stats.reduce_hits > 0
