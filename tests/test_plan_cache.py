"""The session-level plan/build cache and its invalidation contract.

Covers the three memo layers of :class:`repro.core.plancache.SessionCache`
(compile, strategy resolution, reduced-relation builds), the one
``(Database object, version)`` pair that invalidates them, the ``plan_cache=False`` mode
(compile memo stays on — satellite fix: repeated ``prepare()`` of
identical SQL never re-runs the analyzer), the alias routing through
``optimizer.resolve``, and the one memoized decision behind ``explain``
and ``execute``.
"""

from __future__ import annotations

import time

import pytest

import repro
from repro.engine import Column


SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)
SIMPLE = "select n_name from nation where n_nationkey < 3"


class TestCompileMemo:
    def test_identical_sql_compiles_once(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        first = session.prepare(SQL)
        second = session.prepare(SQL)
        assert second.query is first.query  # same analyzed object
        assert session.cache_stats.plan_hits == 1
        assert session.cache_stats.plan_misses == 1

    def test_compile_memo_survives_plan_cache_off(self, tiny_tpch):
        session = repro.connect(tiny_tpch, plan_cache=False)
        first = session.prepare(SQL)
        second = session.prepare(SQL)
        assert second.query is first.query
        assert session.cache_stats.plan_hits == 1

    def test_warm_prepare_is_10x_faster_than_cold(self, tiny_tpch):
        cold = []
        for _ in range(5):
            t0 = time.perf_counter()
            repro.connect(tiny_tpch).prepare(SQL)
            cold.append(time.perf_counter() - t0)
        session = repro.connect(tiny_tpch)
        session.prepare(SQL)
        warm = []
        for _ in range(5):
            t0 = time.perf_counter()
            session.prepare(SQL)
            warm.append(time.perf_counter() - t0)
        assert min(warm) * 10 <= min(cold), (
            f"warm prepare {min(warm):.6f}s not 10x faster than cold "
            f"{min(cold):.6f}s"
        )

    def test_distinct_sql_is_not_conflated(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        a = session.prepare(SQL)
        b = session.prepare(SIMPLE)
        assert a.query is not b.query
        assert session.cache_stats.plan_hits == 0


class TestStrategyAndReduceMemo:
    def test_strategy_resolution_is_memoized(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        prepared = session.prepare(SQL)
        prepared.execute(backend="vector")
        assert session.cache_stats.strategy_misses >= 1
        prepared.execute(backend="vector")
        assert session.cache_stats.strategy_hits >= 1

    def test_reduced_builds_are_reused_across_queries(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        prepared = session.prepare(SQL)
        first = prepared.execute(backend="vector")
        assert session.cache_stats.reduce_misses >= 1
        hits_before = session.cache_stats.reduce_hits
        second = prepared.execute(backend="vector")
        assert second == first
        assert session.cache_stats.reduce_hits > hits_before

    def test_disabled_cache_never_counts_reduce_hits(self, tiny_tpch):
        session = repro.connect(tiny_tpch, plan_cache=False)
        prepared = session.prepare(SQL)
        prepared.execute(backend="vector")
        prepared.execute(backend="vector")
        assert session.cache_stats.reduce_hits == 0
        assert session.cache_stats.strategy_hits == 0

    def test_cached_and_uncached_results_agree(self, tiny_tpch_nulls):
        cached = repro.connect(tiny_tpch_nulls)
        uncached = repro.connect(tiny_tpch_nulls, plan_cache=False)
        for _ in range(2):
            assert (
                cached.execute(SQL, backend="vector").sorted()
                == uncached.execute(SQL, backend="vector").sorted()
            )


class TestInvalidation:
    def test_catalog_mutation_invalidates(self, micro_db):
        session = repro.connect(micro_db)
        session.prepare("select a from t")
        session.execute("select a from t", backend="vector")
        micro_db.create_table("u", [Column("x")], [(1,)])
        session.prepare("select a from t")
        assert session.cache_stats.invalidations == 1
        # the compile memo was flushed: second prepare was a miss
        assert session.cache_stats.plan_misses == 2

    def test_version_counts_catalog_changes(self, micro_db):
        v0 = micro_db.version
        micro_db.create_table("w", [Column("y")], [(2,)])
        assert micro_db.version == v0 + 1
        micro_db.drop_table("w")
        assert micro_db.version == v0 + 2

    def test_idempotent_index_creation_does_not_invalidate(self, micro_db):
        micro_db.create_hash_index("t", ["a"])
        v1 = micro_db.version
        micro_db.create_hash_index("t", ["a"])  # already built
        assert micro_db.version == v1

    def test_results_stay_correct_after_mutation(self, micro_db):
        session = repro.connect(micro_db)
        before = session.execute("select a from t", backend="vector")
        micro_db.drop_table("t")
        micro_db.create_table("t", [Column("a")], [(99,)])
        after = session.execute("select a from t", backend="vector")
        assert before.rows != after.rows
        assert after.rows == [(99,)]


class TestMutateTable:
    """`Database.mutate_table` — the sanctioned row-write path."""

    def test_rows_replacement_bumps_version_and_result(self, micro_db):
        session = repro.connect(micro_db)
        before = session.execute("select a from t", backend="vector")
        assert before.sorted().rows == [(1,), (2,), (3,)]
        v0 = micro_db.version
        micro_db.mutate_table("t", rows=[(10,), (20,)])
        assert micro_db.version == v0 + 1
        after = session.execute("select a from t", backend="vector")
        assert after.sorted().rows == [(10,), (20,)]
        assert session.cache_stats.invalidations >= 1

    def test_mutator_callable_edits_in_place(self, micro_db):
        session = repro.connect(micro_db)
        session.execute("select a from t", backend="vector")

        def bump(table):
            from repro.engine.relation import Relation

            table.relation = Relation(
                table.schema, [(a + 100,) for (a,) in table.relation.rows]
            )

        micro_db.mutate_table("t", mutator=bump)
        after = session.execute("select a from t", backend="vector")
        assert after.sorted().rows == [(101,), (102,), (103,)]

    def test_rows_and_mutator_together_rejected(self, micro_db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            micro_db.mutate_table("t", rows=[(1,)], mutator=lambda t: None)

    def test_mutation_rebuilds_indexes(self, micro_db):
        micro_db.create_hash_index("t", ["a"])
        stale = micro_db.table("t").hash_indexes[("a",)]
        micro_db.mutate_table("t", rows=[(7,), (8,)])
        rebuilt = micro_db.table("t").hash_indexes[("a",)]
        assert rebuilt is not stale
        # the rebuilt index answers for the new rows
        result = repro.connect(micro_db).execute(
            "select a from t where a = 7"
        )
        assert result.rows == [(7,)]


class TestOneWritePath:
    """Base-table rows are a tuple, so ``Database.mutate_table`` is the
    only way they change, and its version bump is the only staleness
    signal the memos need."""

    def test_a_direct_row_edit_raises(self, micro_db):
        rows = micro_db.table("t").relation.rows
        with pytest.raises(AttributeError):
            rows.append((4,))
        with pytest.raises(TypeError):
            rows[-1] = (42,)
        assert rows == ((1,), (2,), (3,))

    @pytest.mark.parametrize("backend", ["row", "vector"])
    def test_an_interior_mutator_edit_reaches_a_warm_prepared_query(
        self, micro_db, backend
    ):
        session = repro.connect(micro_db)
        prepared = session.prepare("select a from t where a > 0")
        run = dict(strategy="nested-relational", backend=backend)
        assert prepared.execute(**run).sorted().rows == [(1,), (2,), (3,)]
        prepared.execute(**run)
        assert session.cache_stats.reduce_hits == 1

        def edit(table):
            table.relation.rows[1] = (42,)

        micro_db.mutate_table("t", mutator=edit)
        assert prepared.execute(**run).sorted().rows == [(1,), (3,), (42,)]
        assert session.cache_stats.reduce_hits == 1
        assert micro_db.table("t").relation.rows == ((1,), (42,), (3,))


class TestSharedCacheAcrossDatabases:
    """One :class:`SessionCache` under sessions over two databases (a
    server pools sessions this way) serves each only its own state,
    however alike the two catalogs look."""

    def test_equal_shaped_tables_keep_their_own_images(self):
        from repro.core.plancache import SessionCache
        from repro.engine import Database

        c, d = Database(), Database()
        c.create_table("u", [Column("x")], [(1,), (2,), (3,)])
        d.create_table("u", [Column("x")], [(1,), (5,), (3,)])
        assert c.version == d.version == 1
        cache = SessionCache()
        sql = "select x from u where x > 1"
        on_c = repro.Session(c, cache=cache).execute(sql, backend="vector")
        on_d = repro.Session(d, cache=cache).execute(sql, backend="vector")
        assert on_c.sorted().rows == [(2,), (3,)]
        assert on_d.sorted().rows == [(3,), (5,)]
        assert cache.stats.reduce_hits == 0

    def test_each_database_analyzes_its_own_sql(self):
        from repro.core.plancache import SessionCache
        from repro.engine import Database
        from repro.errors import AnalysisError

        c, d = Database(), Database()
        c.create_table("t", [Column("x")], [(1,)])
        d.create_table("t", [Column("y")], [(1,)])
        cache = SessionCache()
        sql = "select x from t"
        assert repro.Session(c, cache=cache).execute(sql).rows == [(1,)]
        with pytest.raises(AnalysisError, match="unresolved column"):
            repro.Session(d, cache=cache).execute(sql)

    def test_a_collected_database_is_not_its_successor(self):
        from repro.core.plancache import SessionCache
        from repro.engine import Database

        cache = SessionCache()
        for rows in ([(1,), (2,)], [(7,), (8,)]):
            db = Database()
            db.create_table("u", [Column("x")], rows)
            got = repro.Session(db, cache=cache).execute(
                "select x from u where x > 0", backend="vector"
            )
            assert got.sorted().rows == rows
            del db, got


class TestEviction:
    """Per-table FIFO eviction: one overflowing memo must not nuke the
    other memo tables, and the stats counters stay monotonic."""

    def test_overflow_evicts_only_the_full_table(self):
        from repro.core.plancache import _MAX_ENTRIES, SessionCache
        from repro.engine import Database

        cache = SessionCache()
        cache.validate(Database())
        cache.store_strategy(("sticky",), "impl")
        cache.store_reduced(("sticky-build",), "batch", cells=5)
        for i in range(_MAX_ENTRIES + 10):
            cache.store_plan(f"select {i}", object())
        # the plan memo is bounded ...
        assert len(cache._plans) <= _MAX_ENTRIES
        # ... and the other memos were not collaterally cleared
        assert cache.strategy(("sticky",)) == "impl"
        assert cache.reduced(("sticky-build",)) == "batch"
        assert cache.stats.evictions >= 10

    def test_eviction_is_fifo(self):
        from repro.core.plancache import _MAX_ENTRIES, SessionCache
        from repro.engine import Database

        cache = SessionCache()
        cache.validate(Database())
        for i in range(_MAX_ENTRIES + 1):
            cache.store_plan(f"select {i}", i)
        assert cache.plan("select 0") is None  # the oldest went first
        assert cache.plan(f"select {_MAX_ENTRIES}") == _MAX_ENTRIES

    def test_counters_stay_monotonic_across_evictions(self):
        from repro.core.plancache import _MAX_ENTRIES, SessionCache
        from repro.engine import Database

        cache = SessionCache()
        cache.validate(Database())
        seen = []
        for i in range(3 * _MAX_ENTRIES):
            cache.store_plan(f"select {i}", i)
            snap = cache.stats.snapshot()
            if seen:
                assert all(
                    snap[key] >= seen[-1][key] for key in snap
                ), "stats counters must never decrease"
            seen.append(snap)
        assert cache.stats.evictions == 2 * _MAX_ENTRIES
        assert "evictions" in cache.stats.describe()


@pytest.fixture
def micro_db():
    from repro.engine import Database

    db = Database()
    db.create_table("t", [Column("a")], [(1,), (2,), (3,)])
    return db


class TestDescribe:
    def test_describe_shows_cache_counters(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        prepared = session.prepare(SQL)
        prepared.execute(backend="vector")
        text = prepared.describe()
        assert "plan cache: enabled" in text
        for token in ("plan", "strategy", "reduce"):
            assert token in text

    def test_describe_marks_disabled_cache(self, tiny_tpch):
        prepared = repro.connect(tiny_tpch, plan_cache=False).prepare(SQL)
        assert "plan cache: compile-only" in prepared.describe()


class TestOneDecision:
    """``explain``, ``execute`` and ``trace`` ask one memo around one
    ``resolve()``."""

    OPTIONS = repro.ExecutionOptions(backend="vector")

    def test_explain_then_execute_is_one_miss_one_hit(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        prepared = session.prepare(SQL)
        plan = prepared.explain(options=self.OPTIONS)
        stats = session.cache_stats
        assert (stats.strategy_misses, stats.strategy_hits) == (1, 0)
        _result, trace = prepared.trace(options=self.OPTIONS)
        assert (stats.strategy_misses, stats.strategy_hits) == (1, 1)
        assert trace.roots[0].attrs["strategy"] == plan.chosen

    def test_explain_analyze_prices_once(self, tiny_tpch, monkeypatch):
        from repro.core import optimizer

        calls = []
        choose = optimizer.choose
        monkeypatch.setattr(
            optimizer, "choose",
            lambda *args, **kwargs: (
                calls.append(kwargs), choose(*args, **kwargs)
            )[1],
        )
        prepared = repro.connect(tiny_tpch).prepare(SQL)
        plan = prepared.explain(analyze=True, options=self.OPTIONS)
        assert len(calls) == 1
        assert plan.spans["spans"][0]["attrs"]["strategy"] == plan.chosen

    def test_disabled_cache_resolves_equal_and_counts_nothing(self, tiny_tpch):
        import dataclasses

        cached = repro.connect(tiny_tpch).prepare(SQL)
        session = repro.connect(tiny_tpch, plan_cache=False)
        uncached = session.prepare(SQL)
        for strategy in ("auto", "nested-relational"):
            eff = self.OPTIONS.replace(strategy=strategy)
            memoized = cached._resolve(eff)
            assert cached._resolve(eff) is memoized
            fresh = uncached._resolve(eff)
            assert uncached._resolve(eff) is not fresh
            for field in dataclasses.fields(fresh):
                if field.name == "impl":
                    assert type(fresh.impl) is type(memoized.impl)
                else:
                    assert getattr(fresh, field.name) == getattr(
                        memoized, field.name
                    ), field.name
        stats = session.cache_stats
        assert (stats.strategy_misses, stats.strategy_hits) == (0, 0)


class TestAliasRouting:
    @staticmethod
    def resolve(db, *request, **options):
        from repro.core.optimizer import resolve

        return resolve(repro.compile_sql(SQL, db), db, *request, **options)

    def test_parallel_name_is_an_alias_of_vectorized(self, tiny_tpch):
        decision = self.resolve(tiny_tpch, "nested-relational-parallel", None)
        assert decision.chosen == "nested-relational-vectorized"
        assert decision.impl.name == "nested-relational-vectorized"

    def test_a_threads_request_is_one_memo_entry(self, tiny_tpch):
        session = repro.connect(tiny_tpch)
        prepared = session.prepare(SQL)
        prepared.execute(backend="vector")
        prepared.execute(backend="vector", threads=2)
        stats = session.cache_stats
        assert (stats.strategy_misses, stats.strategy_hits) == (1, 1)

    def test_session_threads_default_flows_through(self, tiny_tpch):
        session = repro.connect(tiny_tpch, threads=2)
        out = session.execute(SQL, backend="vector")
        reference = repro.connect(tiny_tpch).execute(SQL, backend="vector")
        assert out.sorted() == reference.sorted()
