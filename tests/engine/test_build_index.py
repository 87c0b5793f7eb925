"""An equi-join builds once per build batch; a warm execution only probes.

The vector engine keeps an equi-join's build side
(:class:`~repro.engine.vector.kernels.BuildIndex`) on the batch it was
built on.  A reduce-memo image ``T_i`` is handed to every later
execution, so its index is too.  This pins where an index lives and
dies, and that sharing it changes no answer:

* a warm round of the six figure queries builds nothing on the join
  path — no build index, no build side — and calls no ``np.unique``
  at all, where every equi-join used to re-factorize both sides;
* a base table's stored batch, shared by every execution on a RAM
  database and on a memory-mapped store, never holds one;
* an image the reduce memo evicts takes its index with it;
* fifty generated queries over one database, in one session, probe each
  other's images and still answer what ``nested-iteration`` answers.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.core.plancache import _MAX_REDUCED_CELLS
from repro.engine.colstore import load_stored_database
from repro.engine.vector import kernels
from repro.fuzz.generator import FuzzConfig, QueryGenerator, case_rng
from repro.fuzz.datagen import random_database_spec
from repro.fuzz.runner import FuzzCase, sorted_rows
from repro.tpch import TpchConfig, generate, generate_stored

from ..core.test_explain_golden import PAPER_QUERIES

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


class JoinPathCounts:
    """Counts what a join builds: build indexes (the key coder a nest's
    grouping also runs is not counted apart), the build side's offset
    table and row order, ``np.unique`` called from the kernels, and the
    probes that show a join ran at all."""

    def __init__(self, monkeypatch):
        self.calls = {"build": 0, "build_side": 0, "np.unique": 0,
                      "probe": 0}
        self._wrap(monkeypatch, kernels.BuildIndex, "__init__", "build")
        self._wrap(monkeypatch, kernels, "build_starts", "build_side")
        self._wrap(monkeypatch, kernels, "build_rows", "build_side")
        self._wrap(monkeypatch, kernels.BuildIndex, "probe", "probe")
        counts = self.calls

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def unique(*args, **kwargs):
                counts["np.unique"] += 1
                return np.unique(*args, **kwargs)

        monkeypatch.setattr(kernels, "np", CountingNumpy())

    def _wrap(self, monkeypatch, owner, name, counter):
        inner = getattr(owner, name)
        counts = self.calls

        def counted(*args, **kwargs):
            counts[counter] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def reset(self):
        for name in self.calls:
            self.calls[name] = 0


def figure_round(session):
    return [session.execute(sql).rows for sql in FIGURE_SQL]


def test_a_warm_figure_round_builds_nothing(tpch, monkeypatch):
    session = repro.connect(tpch)
    counts = JoinPathCounts(monkeypatch)
    cold = figure_round(session)
    assert counts.calls["build"] > 0 and counts.calls["build_side"] > 0
    counts.reset()
    warm = figure_round(session)
    assert warm == cold
    assert counts.calls["probe"] >= 11  # the figures' equi-joins ran
    built = ("build", "build_side", "np.unique")
    assert {name: counts.calls[name] for name in built} == dict.fromkeys(
        built, 0
    )


@pytest.mark.parametrize("where", ["memory", "stored"])
def test_no_stored_batch_holds_an_index(tpch, stored, where):
    db = tpch if where == "memory" else stored
    session = repro.connect(db)
    figure_round(session)
    figure_round(session)
    for name in db.tables:
        assert not db.relation(name).stored_batch().kept_indexes(), name


def kept(images):
    """Weak references to every index kept on *images*."""
    return [
        weakref.ref(index)
        for image in images
        if hasattr(image, "kept_indexes")
        for index in (image.kept_indexes() or {}).values()
    ]


def test_an_evicted_image_takes_its_index_with_it(tpch):
    session = repro.connect(tpch)
    figure_round(session)
    cache = session._cache
    images = [image for image, _cells in cache._reduced.values()]
    refs = kept(images)
    assert refs and all(ref() is not None for ref in refs)
    evictions = cache.stats.evictions
    # one image the size of the whole budget pushes every other one out
    cache.store_reduced(("filler",), object(), _MAX_REDUCED_CELLS)
    assert cache.stats.evictions - evictions == len(images)
    del images
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_generated_queries_share_one_session():
    """Fifty generated queries over one database in one session: the
    reduce memo hands one query's ``T_i`` — and the index kept on it —
    to the next query that reduces the same block, and each answer is
    judged against ``nested-iteration``."""
    config = FuzzConfig(seed=29, max_rows=24, null_rate=0.3)
    spec = random_database_spec(
        case_rng(config.seed, 0), max_rows=config.max_rows,
        null_rate=config.null_rate, domain=config.domain,
    )
    db = spec.build()
    generator = QueryGenerator(config)
    session = repro.connect(db)
    oracle = repro.connect(db, plan_cache=False)
    for i in range(50):
        stmt = generator.generate(case_rng(config.seed, i), spec)
        sql = FuzzCase(stmt, spec).sql
        got = session.execute(sql, strategy="nested-relational-vectorized")
        want = oracle.execute(sql, strategy="nested-iteration")
        assert sorted_rows(got) == sorted_rows(want), sql
    assert session.cache_stats.reduce_hits > 0
