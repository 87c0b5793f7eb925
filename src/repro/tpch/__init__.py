"""TPC-H substrate: schemas, deterministic data generator, paper queries."""

from .schema import PRIMARY_KEYS, TABLE_NAMES, columns_for
from .datagen import (
    BASE_ROWS,
    TpchConfig,
    build_paper_indexes,
    generate,
    generate_stored,
    rows_at,
)
from .validation import assert_valid, validate
from .queries import (
    PAPER_QUERIES,
    QUERY3_VARIANTS,
    paper_query_suite,
    pick_availqty,
    pick_date_window,
    pick_size_window,
    query1,
    query2,
    query3,
)

__all__ = [
    "PRIMARY_KEYS",
    "TABLE_NAMES",
    "columns_for",
    "BASE_ROWS",
    "TpchConfig",
    "build_paper_indexes",
    "generate",
    "generate_stored",
    "rows_at",
    "PAPER_QUERIES",
    "QUERY3_VARIANTS",
    "query1",
    "query2",
    "query3",
    "pick_date_window",
    "pick_size_window",
    "pick_availqty",
    "paper_query_suite",
    "validate",
    "assert_valid",
]
