"""Out-of-core columnar storage: write-once mmap column files.

A *store* is a directory holding one ``.npy`` file per column (written
with :func:`numpy.lib.format.open_memmap`, so it can be memory-mapped
back without copying), an optional packed validity bitmap per nullable
column (``np.packbits`` of the boolean valid mask), and one
``manifest.json`` describing every table: row count, per-column kind
(``i8``/``f8``/``bool``/fixed-width ``str``), NOT NULL flags and file
names.

Reading side: :class:`StoredRelation` subclasses
:class:`~repro.engine.relation.Relation` but keeps its data as
:class:`~repro.engine.vector.column.Vector` columns — memory-mapped
for a store, heap arrays for every in-RAM base table (it is the one
layout of every base table).  The vectorized backend gets the batch
zero-copy via :meth:`StoredRelation.stored_batch`; row strategies and
the oracle adapters keep working unchanged through the lazy ``rows``
property (the row-iterator shim), which materializes Python tuples only
on first access.

The format is write-once: a store is produced in full by
:class:`StoreWriter` (normally via ``repro gen`` /
:func:`repro.tpch.datagen.generate_stored`) and never mutated.  Writers
are chunked so generation never holds a full table in memory.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CatalogError
from .catalog import Database
from .relation import Relation, Row
from .schema import Column, Schema
from .vector.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJ,
    KIND_STR,
    Vector,
    _choose_kind,
)

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"

#: column kinds a store can hold (``obj`` columns have no fixed-width
#: on-disk layout and are rejected at write time)
STORABLE_KINDS = (KIND_INT, KIND_FLOAT, KIND_BOOL, KIND_STR)

_DTYPES = {KIND_INT: np.dtype(np.int64), KIND_FLOAT: np.dtype(np.float64),
           KIND_BOOL: np.dtype(bool)}


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #


class TableWriter:
    """Chunked writer for one table's columns.

    Rows are buffered up to *chunk_rows*, encoded column-wise into
    temporary per-chunk ``.npy`` files, and stitched into the final
    memory-mapped column files by :meth:`finish`.
    """

    def __init__(
        self,
        root: str,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[str] = None,
        chunk_rows: int = 100_000,
    ):
        if chunk_rows < 1:
            raise CatalogError("chunk_rows must be positive")
        self.root = root
        self.name = name
        self.columns = list(columns)
        self.primary_key = primary_key
        self.chunk_rows = chunk_rows
        self._dir = os.path.join(root, name)
        self._chunk_dir = os.path.join(self._dir, ".chunks")
        os.makedirs(self._chunk_dir, exist_ok=True)
        self._buffer: List[Row] = []
        self._n_rows = 0
        self._n_chunks = 0
        #: per column: list of (kind_or_None, length, data_path, valid_path)
        self._chunks: List[List[Tuple[Optional[str], int, str, Optional[str]]]] = [
            [] for _ in self.columns
        ]
        self._finished: Optional[Dict[str, Any]] = None

    def append(self, row: Row) -> None:
        self._buffer.append(tuple(row))
        if len(self._buffer) >= self.chunk_rows:
            self._flush()

    def extend(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.append(row)

    def _flush(self) -> None:
        if not self._buffer:
            return
        width = len(self.columns)
        for row in self._buffer:
            if len(row) != width:
                raise CatalogError(
                    f"row arity {len(row)} does not match {self.name!r} "
                    f"schema width {width}"
                )
        cols = list(zip(*self._buffer))
        idx = self._n_chunks
        self._n_chunks += 1
        self._n_rows += len(self._buffer)
        for i, col in enumerate(self.columns):
            vec = Vector.from_values(list(cols[i]))
            if vec.kind == KIND_OBJ:
                raise CatalogError(
                    f"column {self.name}.{col.name} holds values with no "
                    f"fixed-width storage kind (would be 'obj'); stores "
                    f"support {STORABLE_KINDS}"
                )
            data_path = os.path.join(self._chunk_dir, f"{col.name}.{idx}.npy")
            np.save(data_path, vec.data, allow_pickle=False)
            valid_path = None
            if not vec.valid.all():
                valid_path = os.path.join(
                    self._chunk_dir, f"{col.name}.{idx}.valid.npy"
                )
                np.save(valid_path, vec.valid, allow_pickle=False)
            kind = vec.kind if vec.valid.any() else None
            self._chunks[i].append((kind, len(vec.data), data_path, valid_path))
        self._buffer = []

    def finish(self) -> Dict[str, Any]:
        """Write the final column files; returns the manifest entry."""
        if self._finished is not None:
            return self._finished
        self._flush()
        n = self._n_rows
        entries = []
        for i, col in enumerate(self.columns):
            entries.append(self._finish_column(col, self._chunks[i], n))
        try:
            os.rmdir(self._chunk_dir)
        except OSError:  # pragma: no cover - leftover foreign files
            pass
        self._finished = {
            "row_count": n,
            "primary_key": self.primary_key,
            "columns": entries,
        }
        return self._finished

    def _finish_column(
        self,
        col: Column,
        chunks: List[Tuple[Optional[str], int, str, Optional[str]]],
        n: int,
    ) -> Dict[str, Any]:
        # the kind of the (non-all-NULL) chunks together; an all-NULL
        # column is carried on the int layout
        kinds = {k for k, _n, _d, _v in chunks if k is not None}
        kind = _choose_kind(kinds)
        if kind == KIND_OBJ:
            raise CatalogError(f"column mixes unstorable kinds {sorted(kinds)!r}")
        if kind == KIND_STR:
            width = 1
            for _k, _n2, data_path, _v in chunks:
                arr = np.load(data_path, allow_pickle=False, mmap_mode="r")
                if arr.dtype.kind == "U":
                    width = max(width, arr.dtype.itemsize // 4)
            dtype = np.dtype(f"U{width}")
        else:
            dtype = _DTYPES[kind]
        rel_file = os.path.join(self.name, f"{col.name}.npy")
        final_path = os.path.join(self.root, rel_file)
        mm = np.lib.format.open_memmap(
            final_path, mode="w+", dtype=dtype, shape=(n,)
        )
        valid = np.ones(n, dtype=bool)
        offset = 0
        for _kind, length, data_path, valid_path in chunks:
            arr = np.load(data_path, allow_pickle=False)
            mm[offset : offset + length] = arr.astype(dtype, copy=False)
            if valid_path is not None:
                valid[offset : offset + length] = np.load(
                    valid_path, allow_pickle=False
                )
            offset += length
            os.remove(data_path)
            if valid_path is not None:
                os.remove(valid_path)
        mm.flush()
        del mm
        rel_valid = None
        if not valid.all():
            rel_valid = os.path.join(self.name, f"{col.name}.valid.npy")
            np.save(
                os.path.join(self.root, rel_valid),
                np.packbits(valid),
                allow_pickle=False,
            )
        return {
            "name": col.name,
            "kind": kind,
            "not_null": bool(col.not_null),
            "file": rel_file,
            "valid_file": rel_valid,
        }


class StoreWriter:
    """Writes one whole column store directory plus its manifest."""

    def __init__(
        self,
        root: str,
        scale_factor: Optional[float] = None,
        seed: Optional[int] = None,
        chunk_rows: int = 100_000,
    ):
        self.root = root
        self.scale_factor = scale_factor
        self.seed = seed
        self.chunk_rows = chunk_rows
        self._tables: "Dict[str, TableWriter]" = {}
        os.makedirs(root, exist_ok=True)

    def table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[str] = None,
    ) -> TableWriter:
        if name in self._tables:
            raise CatalogError(f"table {name!r} already written")
        writer = TableWriter(
            self.root, name, columns, primary_key=primary_key,
            chunk_rows=self.chunk_rows,
        )
        self._tables[name] = writer
        return writer

    def finalize(self) -> Dict[str, Any]:
        """Finish every table and write ``manifest.json``."""
        manifest = {
            "format_version": FORMAT_VERSION,
            "scale_factor": self.scale_factor,
            "seed": self.seed,
            "tables": {name: w.finish() for name, w in self._tables.items()},
        }
        with open(os.path.join(self.root, MANIFEST_NAME), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
        return manifest


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #


class StoredRelation(Relation):
    """A base table: a relation whose columns are its data.

    The columns (:meth:`stored_batch`) are the primary representation:
    memory-mapped store files (:func:`stored_relation`) or heap arrays
    encoded once when an in-RAM table is built
    (:meth:`~repro.engine.catalog.Database.create_table`,
    :func:`~repro.tpch.datagen.generate`).  The inherited row-level API
    keeps working through the lazy ``rows`` shim below, so row/baseline
    strategies and the external-oracle adapters need no changes; they
    just pay a one-time materialization on first row access — unless
    the table was built from Python rows, which it then keeps as its
    row tuple (*rows*).
    """

    __slots__ = ("_vectors", "_row_count", "_rows_cache", "_batch_cache")

    def __init__(
        self,
        schema: Schema,
        vectors: Sequence[Vector],
        row_count: int,
        rows: Optional[Tuple[Row, ...]] = None,
    ):
        # deliberately NOT calling Relation.__init__: it would materialize
        # a row list; the columns are the table instead.
        self.schema = schema
        self._vectors = list(vectors)
        self._row_count = int(row_count)
        self._rows_cache = rows
        self._batch_cache = None

    # -- the row-iterator shim ----------------------------------------- #

    @property
    def rows(self) -> Tuple[Row, ...]:  # type: ignore[override]
        """Python row tuples, materialized lazily on first access (as a
        tuple, so an in-place edit raises: see
        :meth:`~repro.engine.catalog.Database.mutate_table`)."""
        if self._rows_cache is None:
            if not self._vectors:
                self._rows_cache = ((),) * self._row_count
            else:
                cols = [v.tolist_sql() for v in self._vectors]
                self._rows_cache = tuple(zip(*cols))
        return self._rows_cache

    # -- O(1) overrides that must not touch rows ----------------------- #

    def __len__(self) -> int:
        return self._row_count

    def __repr__(self) -> str:
        return f"StoredRelation({self.schema!r}, {self._row_count} rows)"

    def column_values(self, ref: str):
        return self._vectors[self.schema.index_of(ref)].tolist_sql()

    # -- columnar access ------------------------------------------------ #

    def stored_batch(self):
        """The columns as a :class:`~repro.engine.vector.batch.Batch`
        (zero-copy: the vectors themselves, built once).  Every execution
        shares it, so it keeps no join build index: a join that builds
        on it builds per execution."""
        if self._batch_cache is None:
            from .vector.batch import Batch

            self._batch_cache = Batch(
                self.schema, self._vectors, self._row_count,
                keeps_indexes=False,
            )
        return self._batch_cache


def _load_vector(root: str, entry: Dict[str, Any], n: int) -> Vector:
    data = np.load(
        os.path.join(root, entry["file"]), mmap_mode="r", allow_pickle=False
    )
    if len(data) != n:
        raise CatalogError(
            f"column file {entry['file']!r} holds {len(data)} rows, "
            f"manifest says {n}"
        )
    if entry.get("valid_file"):
        packed = np.load(
            os.path.join(root, entry["valid_file"]), allow_pickle=False
        )
        valid = np.unpackbits(packed)[:n].astype(bool)
    else:
        valid = np.ones(n, dtype=bool)
    return Vector(entry["kind"], data, valid)


def open_store(root: str) -> Dict[str, Any]:
    """Read and sanity-check a store's ``manifest.json``."""
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise CatalogError(f"no column store at {root!r} (missing manifest)")
    with open(path) as fh:
        manifest = json.load(fh)
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CatalogError(
            f"unsupported store format version {version!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    return manifest


def stored_relation(
    root: str, name: str, entry: Dict[str, Any]
) -> StoredRelation:
    """Open one table of a store as a :class:`StoredRelation`."""
    n = int(entry["row_count"])
    columns = [
        Column(c["name"], table=name, not_null=bool(c["not_null"]))
        for c in entry["columns"]
    ]
    vectors = [_load_vector(root, c, n) for c in entry["columns"]]
    return StoredRelation(Schema(columns), vectors, n)


def load_stored_database(root: str, build_indexes: bool = False) -> Database:
    """Attach every table of the store at *root* to a fresh Database.

    Indexes are off by default.  Creating one costs nothing (its
    buckets wait for the first probe), but a probe — a row baseline's
    nested iteration — builds Python buckets from the key columns and
    fetches the table's Python rows: the heap copy the mapped columns
    exist to avoid.  Pass ``build_indexes=True`` to get the paper's
    index set anyway (row strategies then probe them as usual).
    """
    manifest = open_store(root)
    db = Database()
    for name, entry in manifest["tables"].items():
        db.attach_table(
            name,
            stored_relation(root, name, entry),
            primary_key=entry.get("primary_key"),
        )
    if build_indexes:
        from ..tpch.datagen import build_paper_indexes

        build_paper_indexes(db)
    return db


def store_size_bytes(root: str) -> int:
    """Total on-disk size of a store directory (manifest included)."""
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total
