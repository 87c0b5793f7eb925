"""Out-of-core column store: roundtrip, zero-copy, old manifests, shims."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

import repro
from repro.engine import NULL, Column, Database
from repro.engine.colstore import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    StoredRelation,
    StoreWriter,
    load_stored_database,
    open_store,
    store_size_bytes,
)
from repro.core.blocks import LinkSpec
from repro.core.linking import SetPredicate
from repro.core.query_tree import NestLink, UncorrelatedLink
from repro.engine.expressions import Col, Comparison, Literal
from repro.engine.governor import batch_nbytes
from repro.engine.vector import kernels, nestlink, table_batch
from repro.errors import CatalogError
from repro.tpch import TpchConfig, generate, generate_stored

from ..core.test_explain_golden import PAPER_QUERIES


CONFIG = TpchConfig(scale_factor=0.002, seed=1234, inject_null_fraction=0.08)


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("colstore") / "tpch")
    generate_stored(path, CONFIG, chunk_rows=500)
    return path


@pytest.fixture(scope="module")
def stored_db(store_dir) -> Database:
    return load_stored_database(store_dir)


@pytest.fixture(scope="module")
def memory_db() -> Database:
    return generate(CONFIG)


def _bag(rows):
    return sorted(rows, key=repr)


def test_roundtrip_every_table(stored_db, memory_db):
    """generate_stored writes exactly what generate() builds in memory."""
    for name in sorted(memory_db.tables):
        expected = memory_db.relation(name)
        got = stored_db.relation(name)
        assert isinstance(got, StoredRelation)
        assert len(got) == len(expected)
        assert [c.name for c in got.schema.columns] == [
            c.name for c in expected.schema.columns
        ]
        assert _bag(got.rows) == _bag(expected.rows)


def test_stored_batch_is_memory_mapped(stored_db):
    """The columnar image serves views straight into the column files."""
    rel = stored_db.relation("lineitem")
    batch = rel.stored_batch()
    assert len(batch) == len(rel)
    mapped = [c for c in batch.columns if isinstance(c.data, np.memmap)]
    assert len(mapped) == len(batch.columns)
    # mapped vectors are exempt from the governed heap account
    assert batch_nbytes(batch) == 0
    # and the batch is built once, not per access
    assert rel.stored_batch() is batch


def test_kernel_outputs_over_stored_batches_are_charged_heap_arrays(stored_db):
    """Whatever a kernel gathers out of a mapped table is a plain heap
    ``np.ndarray`` — never an ``np.memmap``-typed heap array, which the
    accounting once mistook for stored bytes — and ``batch_nbytes``
    counts every byte of it."""
    part = stored_db.relation("part").stored_batch()
    partsupp = stored_db.relation("partsupp").stored_batch()
    assert batch_nbytes(part) == batch_nbytes(partsupp) == 0
    keys = (["part.p_partkey"], ["partsupp.ps_partkey"])
    residual = Comparison("<>", Col("p_name"), Col("ps_comment"))
    exists = SetPredicate("exists")
    link = LinkSpec("exists")
    outputs = {
        "filter": kernels.filter_batch(
            part, Comparison("<", Col("p_size"), Literal(20))
        ),
        "hash": kernels.hash_join(part, partsupp, *keys, residual),
        "left-outer": kernels.left_outer_hash_join(
            part, partsupp, *keys, residual
        ),
        "semi": kernels.semi_join(part, partsupp, *keys, residual),
        "anti": kernels.anti_join(
            part, partsupp, *keys, Comparison("<", Col("p_size"), Literal(20))
        ),
        "nest-link": nestlink.nest_link(
            partsupp,
            NestLink(
                exists, link, "ps_suppkey", True, (),
                by=("ps_partkey", "ps_comment"), key=("ps_partkey",),
                keep=(), nest_impl="sorted", names=(),
            ),
        ),
        "uncorrelated-link": nestlink.uncorrelated_link(
            part, partsupp,
            UncorrelatedLink(exists, link, "ps_suppkey", True, (), names=()),
        ),
    }
    for name, out in outputs.items():
        assert len(out), name
        for column in out.columns:
            assert type(column.data) is np.ndarray, name
            assert type(column.valid) is np.ndarray, name
        assert batch_nbytes(out) == sum(
            c.data.nbytes + c.valid.nbytes for c in out.columns
        ), name


def test_zero_copy_against_column_file(store_dir, stored_db):
    """stored_batch vector data aliases the on-disk .npy, no copy."""
    manifest = open_store(store_dir)
    entry = manifest["tables"]["orders"]["columns"][0]
    path = os.path.join(store_dir, entry["file"])
    vec = stored_db.relation("orders").stored_batch().columns[0]
    # two mmap() calls of one file get distinct virtual addresses, so
    # np.shares_memory cannot see the aliasing; the backing file can.
    assert isinstance(vec.data, np.memmap)
    assert os.path.samefile(vec.data.filename, path)
    on_disk = np.load(path, mmap_mode="r", allow_pickle=False)
    assert np.array_equal(np.asarray(vec.data), np.asarray(on_disk))


def test_row_shim_matches_columns(stored_db):
    """The lazy rows property yields the same values as the columns."""
    rel = stored_db.relation("nation")
    rows = rel.rows
    assert len(rows) == len(rel)
    for i, ref in enumerate(c.name for c in rel.schema.columns):
        assert [r[i] for r in rows] == rel.column_values(ref)


def test_a_vector_query_never_builds_the_row_shim(store_dir):
    """The vector engine scans the mapped columns themselves."""
    db = load_stored_database(store_dir)
    got = repro.connect(db).execute(
        "select p_partkey from part where p_size > 10", backend="vector"
    )
    assert len(got) > 0
    assert db.relation("part")._rows_cache is None
    assert table_batch(db.table("part")) is db.relation("part").stored_batch()


def test_a_mutator_edit_of_a_stored_table_reaches_both_backends(store_dir):
    """The edit works on a fresh in-RAM copy (the store is write-once);
    both backends and ``len`` then see the new rows, also through a
    prepared query whose reduce memo was warm."""
    db = load_stored_database(store_dir)
    session = repro.connect(db)
    prepared = session.prepare(
        "select r_name from region where r_regionkey >= 0"
    )
    for backend in ("row", "vector", "row", "vector"):
        got = prepared.execute(strategy="nested-relational", backend=backend)
        assert len(got) == 5
    assert session.cache_stats.reduce_hits == 2
    db.mutate_table(
        "region",
        mutator=lambda table: table.relation.rows.append(
            table.relation.rows[0]
        ),
    )
    # the edited rows are re-encoded into heap columns
    assert isinstance(db.relation("region"), StoredRelation)
    assert not isinstance(table_batch(db.table("region")).columns[0].data,
                          np.memmap)
    for backend in ("row", "vector"):
        got = prepared.execute(strategy="nested-relational", backend=backend)
        assert len(got) == 6
        got = session.execute("select r_name from region", backend=backend)
        assert len(got) == 6
    assert len(db.relation("region")) == 6


@pytest.fixture(scope="module")
def stats_store_dir(store_dir, tmp_path_factory):
    """A copy of *store_dir* whose manifest gives every column a
    ``"stats"`` entry and the store a ``"digest"``, as stores of format 1
    once recorded."""
    path = str(tmp_path_factory.mktemp("colstore_stats") / "tpch")
    shutil.copytree(store_dir, path)
    manifest = open_store(path)
    manifest["digest"] = "0123456789abcdef"
    for entry in manifest["tables"].values():
        for c in entry["columns"]:
            c["stats"] = {"ndv": 1.0, "null_frac": 0.0, "min": 0, "max": 0}
    with open(os.path.join(path, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh)
    return path


@pytest.mark.parametrize("backend", ["row", "vector"])
@pytest.mark.parametrize("stem,sql", PAPER_QUERIES)
def test_a_manifest_still_carrying_stats_opens(
    store_dir, stored_db, stats_store_dir, stem, sql, backend
):
    """A fresh manifest records no per-column ``"stats"`` and no
    ``"digest"``; a store whose manifest still carries them opens and
    answers exactly as the fresh one does."""
    manifest = open_store(store_dir)
    assert "digest" not in manifest
    assert not any(
        "stats" in c
        for entry in manifest["tables"].values()
        for c in entry["columns"]
    )
    assert "digest" in open_store(stats_store_dir)
    expected = repro.connect(stored_db).execute(
        sql, strategy="nested-relational", backend=backend
    )
    got = repro.connect(load_stored_database(stats_store_dir)).execute(
        sql, strategy="nested-relational", backend=backend
    )
    assert got == expected, stem


@pytest.mark.parametrize("backend", ["row", "vector"])
def test_query_parity_stored_vs_memory(stored_db, memory_db, backend):
    """Both backends read stored tables and match the in-memory engine."""
    sql = repro.tpch.query1("1994-01-01", "1996-12-31")
    expected = repro.connect(memory_db).execute(
        sql, strategy="nested-relational", backend="row"
    )
    got = repro.connect(stored_db).execute(
        sql, strategy="nested-relational", backend=backend
    )
    assert got == expected


def test_store_rejects_obj_columns(tmp_path):
    writer = StoreWriter(str(tmp_path / "bad"))
    table = writer.table("t", [Column("a")])
    table.append(((1, 2),))  # tuple value -> 'obj' vector kind
    with pytest.raises(CatalogError, match="obj"):
        table.finish()


def test_store_column_kind_spans_chunks(tmp_path):
    """Chunks of int and float widen to float; int and str chunks have
    no common storable kind."""
    writer = StoreWriter(str(tmp_path / "mixed"), chunk_rows=1)
    writer.table("t", [Column("a")]).extend([(1,), (2.5,), (NULL,)])
    writer.finalize()
    rel = load_stored_database(str(tmp_path / "mixed")).relation("t")
    assert rel.column_values("a")[:2] == [1.0, 2.5]
    table = StoreWriter(str(tmp_path / "bad"), chunk_rows=1).table(
        "t", [Column("a")]
    )
    table.extend([(1,), ("x",)])
    with pytest.raises(CatalogError, match="mixes unstorable kinds"):
        table.finish()


def test_open_store_validates(tmp_path):
    with pytest.raises(CatalogError, match="missing manifest"):
        open_store(str(tmp_path))
    root = tmp_path / "v99"
    root.mkdir()
    (root / MANIFEST_NAME).write_text(
        json.dumps({"format_version": FORMAT_VERSION + 99, "tables": {}})
    )
    with pytest.raises(CatalogError, match="format version"):
        open_store(str(root))


def test_store_size_accounts_all_files(store_dir):
    assert store_size_bytes(store_dir) > 0
    assert store_size_bytes(store_dir) == sum(
        os.path.getsize(os.path.join(d, f))
        for d, _dirs, files in os.walk(store_dir)
        for f in files
    )
