"""Every base table's columns equal the first-touch encode they replaced.

A base table used to be row tuples whose columnar image the vector
engine encoded on first touch (``Vector.from_values`` per column).
Columns are now the table itself, encoded when the table is built.
``tests/golden/table_images.json`` pins, per table, each column's name,
kind and ``dtype.str`` (a ``U`` width included) plus the
``governor.batch_nbytes`` of the whole image, as the first-touch encode
produced them.  It was recorded **before** that change, from its parent
commit's ``src/`` and this file::

    PYTHONPATH=<parent checkout>/src python -m tests.engine.test_table_images

Equal layouts and bytes keep every ``table materialization`` charge,
and so every spill decision, where it was.  There is no
``--update-golden`` path.
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.engine.governor import batch_nbytes
from repro.engine.vector.batch import table_batch
from repro.fuzz.datagen import random_database_spec
from repro.tpch import TpchConfig, generate

from ..core.test_explain_golden import GOLDEN_DIR
from .test_colstore import CONFIG as COLSTORE_CONFIG

GOLDEN_PATH = os.path.join(GOLDEN_DIR, "table_images.json")

FUZZ_SEEDS = range(1, 21)
FUZZ_MAX_ROWS = (8, 64)


def databases():
    """(label, make) for every database the golden covers."""
    yield "tpch-sf0.001-seed2005", lambda: generate(
        TpchConfig(scale_factor=0.001, seed=2005))
    yield "tpch-colstore-config", lambda: generate(COLSTORE_CONFIG)
    for max_rows in FUZZ_MAX_ROWS:
        for seed in FUZZ_SEEDS:
            yield f"fuzz-seed{seed}-rows{max_rows}", (
                lambda seed=seed, max_rows=max_rows: random_database_spec(
                    random.Random(seed), max_rows=max_rows).build())


def images(db):
    """Per table: its columns' (name, kind, dtype.str) and image bytes."""
    out = {}
    for name in sorted(db.tables):
        table = db.table(name)
        batch = table_batch(table)
        out[name] = {
            "columns": [
                f"{column.name} {vector.kind} {vector.data.dtype.str}"
                for column, vector in zip(table.schema.columns, batch.columns)
            ],
            "batch_nbytes": batch_nbytes(batch),
        }
    return out


def record():
    return {label: images(build()) for label, build in databases()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("label,build", list(databases()),
                         ids=[label for label, _build in databases()])
def test_images_equal_the_first_touch_encode(golden, label, build):
    assert images(build()) == golden[label]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(record(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN_PATH}")
