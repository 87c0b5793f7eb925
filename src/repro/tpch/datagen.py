"""Deterministic synthetic TPC-H data generator.

A scaled-down stand-in for dbgen: row counts follow the official TPC-H
cardinalities times the scale factor (orders = 1 500 000 × SF, lineitem ≈
4 × orders, part = 200 000 × SF, partsupp = 4 × part, ...), values follow
the spec's distributions closely enough for the paper's workloads
(uniform ``p_size`` in 1..50, ``ps_availqty`` in 1..9999, ``l_quantity``
in 1..50, order dates uniform over 1992-01-01 .. 1998-08-02).  Everything
derives from a seeded :class:`random.Random`, so a given (sf, seed) pair
always produces the same database — benchmark series are reproducible.

``inject_null_fraction`` optionally replaces that fraction of
``l_extendedprice`` / ``ps_supplycost`` values with NULL: the paper's
soundness arguments are about *potentially* NULL columns, and the
correctness test-suite uses actually-NULL data to catch unsound rewrites.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..engine.catalog import Database
from ..engine.relation import Row
from ..engine.schema import Column, Schema
from ..engine.types import NULL
from .schema import PRIMARY_KEYS, columns_for

#: official TPC-H cardinalities at scale factor 1
BASE_ROWS = {
    "region": 5,
    "nation": 25,
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
}

_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_CONTAINERS = ["SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PACK"]
_MODES = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB", "REG AIR"]
_TYPES = ["ECONOMY", "STANDARD", "PROMO", "SMALL", "MEDIUM", "LARGE"]
_DATE_START = 8035  # ordinal days offset base for 1992-01-01 (arbitrary epoch)
_DATE_SPAN = 2405   # days between 1992-01-01 and 1998-08-02


def _date(day_offset: int) -> str:
    """ISO date string for 1992-01-01 + day_offset (lexicographic order
    equals chronological order, so strings compare correctly)."""
    import datetime

    return (datetime.date(1992, 1, 1) + datetime.timedelta(days=day_offset)).isoformat()


@dataclass
class TpchConfig:
    """Knobs for :func:`generate`."""

    scale_factor: float = 0.001
    seed: int = 42
    #: declare NOT NULL on l_extendedprice / ps_supplycost (Query 1/2b hinge)
    price_not_null: bool = False
    #: fraction of the two price columns replaced by NULL (0 = spec data)
    inject_null_fraction: float = 0.0
    #: create the indexes the paper's experiments assume
    build_indexes: bool = True


def rows_at(sf: float, table: str) -> int:
    """Scaled row count for *table* (min 1; nation/region never scale)."""
    if table in ("region", "nation"):
        return BASE_ROWS[table]
    return max(1, int(BASE_ROWS[table] * sf))


# --------------------------------------------------------------------- #
# shared row generators
#
# Both the in-memory builder (:func:`generate`) and the streaming
# column-store writer (:func:`generate_stored`) run one walk over these
# (:func:`_walk`), in one table order, off ONE seeded rng — so a given
# (sf, seed) pair yields bit-identical rows regardless of the
# destination.  Any change to the rng call sequence here is a format
# break for stored datasets.
# --------------------------------------------------------------------- #


def _make_maybe_null(rng: random.Random, fraction: float):
    def maybe_null(value):
        if fraction > 0 and rng.random() < fraction:
            return NULL
        return value

    return maybe_null


def _region_rows(n_region: int):
    for k in range(n_region):
        yield (k, _REGIONS[k % len(_REGIONS)], f"region {k}")


def _nation_rows(n_nation: int, n_region: int):
    for k in range(n_nation):
        yield (k, f"NATION#{k:02d}", k % n_region, f"nation {k}")


def _supplier_rows(rng: random.Random, n_supplier: int, n_nation: int):
    for k in range(1, n_supplier + 1):
        yield (
            k,
            f"Supplier#{k:09d}",
            f"addr {k}",
            rng.randrange(n_nation),
            f"{rng.randrange(10,35)}-555-{k:07d}",
            round(rng.uniform(-999.99, 9999.99), 2),
            f"supplier comment {k}",
        )


def _customer_rows(rng: random.Random, n_customer: int, n_nation: int):
    for k in range(1, n_customer + 1):
        yield (
            k,
            f"Customer#{k:09d}",
            f"addr {k}",
            rng.randrange(n_nation),
            f"{rng.randrange(10,35)}-555-{k:07d}",
            round(rng.uniform(-999.99, 9999.99), 2),
            _SEGMENTS[rng.randrange(len(_SEGMENTS))],
            f"customer comment {k}",
        )


def _part_rows(rng: random.Random, n_part: int):
    for k in range(1, n_part + 1):
        yield (
            k,
            f"part {k}",
            f"Manufacturer#{k % 5 + 1}",
            f"Brand#{k % 25 + 1}",
            _TYPES[rng.randrange(len(_TYPES))],
            rng.randint(1, 50),
            _CONTAINERS[rng.randrange(len(_CONTAINERS))],
            round(900 + (k % 1000) + rng.uniform(0, 100), 2),
            f"part comment {k}",
        )


def _partsupp_rows(rng: random.Random, n_part: int, n_supplier: int, maybe_null):
    ps_key = 0
    for pk in range(1, n_part + 1):
        for j in range(4):
            ps_key += 1
            yield (
                ps_key,
                pk,
                1 + (pk * 4 + j) % n_supplier,
                rng.randint(1, 9999),
                # TPC-H spec uses uniform [1, 1000]; we widen to 2000 so
                # the paper's "p_retailprice < ANY/ALL ps_supplycost"
                # predicates have non-trivial selectivity at small scale
                # factors (retail prices sit in 900..2000).
                maybe_null(round(rng.uniform(1.0, 2000.0), 2)),
                f"partsupp comment {ps_key}",
            )


def _order_lineitem_rows(
    rng: random.Random,
    n_orders: int,
    n_part: int,
    n_customer: int,
    n_supplier: int,
    maybe_null,
):
    """Yield ``("lineitem", row)`` / ``("orders", row)`` interleaved.

    Lines are generated before their order (o_totalprice sums them), so
    a streaming consumer sees each order's lineitems first; within each
    table rows arrive in key order.
    """
    l_key = 0
    for ok in range(1, n_orders + 1):
        order_date = rng.randrange(_DATE_SPAN - 151)
        n_lines = rng.randint(1, 7)
        total = 0.0
        for ln in range(1, n_lines + 1):
            l_key += 1
            partkey = rng.randint(1, n_part)
            suppkey = 1 + (partkey * 4 + rng.randrange(4)) % n_supplier
            quantity = rng.randint(1, 50)
            extended = round(quantity * rng.uniform(900.0, 1100.0) / 10, 2)
            total += extended
            ship = order_date + rng.randint(1, 121)
            commit = order_date + rng.randint(30, 90)
            receipt = ship + rng.randint(1, 30)
            yield (
                "lineitem",
                (
                    l_key,
                    ok,
                    partkey,
                    suppkey,
                    ln,
                    quantity,
                    maybe_null(extended),
                    round(rng.uniform(0.0, 0.1), 2),
                    round(rng.uniform(0.0, 0.08), 2),
                    "R" if rng.random() < 0.25 else "N",
                    "O" if rng.random() < 0.5 else "F",
                    _date(ship),
                    _date(commit),
                    _date(receipt),
                    _MODES[rng.randrange(len(_MODES))],
                    f"line comment {l_key}",
                ),
            )
        yield (
            "orders",
            (
                ok,
                rng.randint(1, n_customer),
                "F" if rng.random() < 0.5 else "O",
                round(total, 2),
                _date(order_date),
                _PRIORITIES[rng.randrange(len(_PRIORITIES))],
                f"Clerk#{rng.randrange(1000):09d}",
                0,
                f"order comment {ok}",
            ),
        )


def _configured(config: Optional[TpchConfig], kwargs) -> TpchConfig:
    """*config* (default :class:`TpchConfig`) with *kwargs* set on it."""
    if config is None:
        config = TpchConfig()
    for key, value in kwargs.items():
        if not hasattr(config, key):
            raise TypeError(f"unknown TpchConfig field {key!r}")
        setattr(config, key, value)
    return config


def _walk(config: TpchConfig, open_table) -> None:
    """The seeded table walk of :func:`generate` and
    :func:`generate_stored`.

    Every table's rows, in one table order, off one rng: each table's
    are appended to the writer ``open_table(name, columns,
    primary_key)`` returns, which is then finished.
    """
    rng = random.Random(config.seed)
    sf = config.scale_factor
    n_region = rows_at(sf, "region")
    n_nation = rows_at(sf, "nation")
    n_supplier = rows_at(sf, "supplier")
    n_customer = rows_at(sf, "customer")
    n_part = rows_at(sf, "part")
    n_orders = rows_at(sf, "orders")
    maybe_null = _make_maybe_null(rng, config.inject_null_fraction)

    def table(name):
        return open_table(
            name, columns_for(name, config.price_not_null), PRIMARY_KEYS[name]
        )

    def write(name, rows):
        writer = table(name)
        for row in rows:
            writer.append(row)
        writer.finish()

    write("region", _region_rows(n_region))
    write("nation", _nation_rows(n_nation, n_region))
    write("supplier", _supplier_rows(rng, n_supplier, n_nation))
    write("customer", _customer_rows(rng, n_customer, n_nation))
    write("part", _part_rows(rng, n_part))
    write("partsupp", _partsupp_rows(rng, n_part, n_supplier, maybe_null))
    # orders and lineitem interleave on the shared rng: keep both
    # writers open and route each yielded row to its table.
    orders, lineitem = table("orders"), table("lineitem")
    for name, row in _order_lineitem_rows(
        rng, n_orders, n_part, n_customer, n_supplier, maybe_null
    ):
        (orders if name == "orders" else lineitem).append(row)
    orders.finish()
    lineitem.finish()


class _TableInRam:
    """A writer of the walk that builds one table in RAM: its rows are
    collected, encoded into the table's columns once, and dropped."""

    def __init__(
        self, db: Database, name: str, columns: List[Column], primary_key: str
    ):
        self.db, self.name, self.primary_key = db, name, primary_key
        self.schema = Schema([c.renamed_table(name) for c in columns])
        self.rows: List[Row] = []

    def append(self, row: Row) -> None:
        self.rows.append(row)

    def finish(self) -> None:
        from ..engine.colstore import StoredRelation
        from ..engine.vector.column import encode_rows

        n = len(self.rows)
        columns = encode_rows(self.rows, len(self.schema))
        self.rows = []
        self.db.attach_table(
            self.name,
            StoredRelation(self.schema, columns, n),
            primary_key=self.primary_key,
        )


def generate(config: Optional[TpchConfig] = None, **kwargs) -> Database:
    """Build a TPC-H database per *config* (kwargs override fields).

    The same walk :func:`generate_stored` writes to a store, built in
    RAM: every table is its columns, and builds its Python rows only
    when something reads them.
    """
    config = _configured(config, kwargs)
    db = Database()
    _walk(config, functools.partial(_TableInRam, db))
    if config.build_indexes:
        build_paper_indexes(db)
    return db


def build_paper_indexes(db: Database) -> None:
    """Create the indexes Section 5 describes.

    "B+ tree indexes on the primary key of each base table were
    automatically built"; "Additional indexes on the foreign keys of
    lineitem, l_partkey and l_suppkey, are created manually"; "we created
    a combined index on (l_partkey, l_suppkey) and two single indexes".
    """
    for table, pk in PRIMARY_KEYS.items():
        if db.has_table(table):
            db.create_hash_index(table, [pk])
    db.create_hash_index("lineitem", ["l_orderkey"])
    db.create_hash_index("lineitem", ["l_partkey"])
    db.create_hash_index("lineitem", ["l_suppkey"])
    db.create_hash_index("lineitem", ["l_partkey", "l_suppkey"])
    db.create_hash_index("partsupp", ["ps_partkey"])
    db.create_hash_index("partsupp", ["ps_partkey", "ps_suppkey"])
    db.create_hash_index("orders", ["o_orderkey"])


def generate_stored(
    out_dir: str,
    config: Optional[TpchConfig] = None,
    chunk_rows: int = 100_000,
    **kwargs,
) -> str:
    """Stream a TPC-H dataset straight into an on-disk column store.

    Writes the same rows :func:`generate` builds — the one walk, one
    seeded rng, same call order — but in ``chunk_rows`` batches through
    :class:`repro.engine.colstore.StoreWriter`, so peak memory stays at
    one chunk per open table instead of the whole database.  The
    resulting directory loads with
    :func:`repro.engine.colstore.load_stored_database`.

    Returns *out_dir*.  ``repro gen`` is the CLI face of this function.
    """
    from ..engine.colstore import StoreWriter

    config = _configured(config, kwargs)
    store = StoreWriter(
        out_dir,
        scale_factor=config.scale_factor,
        seed=config.seed,
        chunk_rows=chunk_rows,
    )
    _walk(config, store.table)
    store.finalize()
    return out_dir
