"""Base-table state built on first read, read first by many threads.

A :class:`~repro.engine.index.HashIndex` builds its buckets on its
first probe, and a :class:`~repro.engine.colstore.StoredRelation` its
row tuple on its first row read — both without a lock, by design: two
first readers each build, and they build equal values.  Eight threads
take both first reads at once, switching every microsecond; every
reader must see the buckets and rows a single-threaded build produces.
"""

from __future__ import annotations

import sys
import threading

import repro

N_THREADS = 8

CONFIG = repro.tpch.TpchConfig(scale_factor=0.001, seed=1234)


def _lineitem(db):
    table = db.table("lineitem")
    return table.relation, list(table.hash_indexes.values())


def test_index_buckets_and_table_rows_read_first_by_eight_threads():
    relation, indexes = _lineitem(repro.tpch.generate(CONFIG))
    assert relation._rows_cache is None
    assert indexes and all(index._buckets is None for index in indexes)
    want_rel, want_indexes = _lineitem(repro.tpch.generate(CONFIG))
    want_rows = want_rel.rows
    want_buckets = [index._lookup() for index in want_indexes]

    barrier = threading.Barrier(N_THREADS)
    seen = [[] for _ in range(N_THREADS)]

    def read(out):
        barrier.wait()
        out.append(relation.rows)
        out.extend(index._lookup() for index in indexes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for out in seen:
        assert len(out) == 1 + len(indexes)
        rows, buckets = out[0], out[1:]
        assert type(rows) is tuple
        assert rows == want_rows
        assert buckets == want_buckets
    # the state the readers left behind is a single-threaded build's too
    assert relation.rows == want_rows
    assert [index._lookup() for index in indexes] == want_buckets
