"""The paper's benchmark queries (Section 5.2), as SQL text builders.

Each builder returns SQL for :func:`repro.sql.compile_sql`.  The
selection constants (X1/X2, Y, Z) regulate the size of each query block
exactly as in the paper; :func:`pick_date_window` / :func:`pick_size_window`
derive constants that hit a target outer-block size on a given database.

Query 1 — one-level, ``> ALL``, correlated::

    select o_orderkey, o_orderpriority from orders
    where o_orderdate >= X1 and o_orderdate < X2
      and o_totalprice > all (select l_extendedprice from lineitem
                              where l_orderkey = o_orderkey
                                and l_commitdate < l_receiptdate
                                and l_shipdate < l_commitdate)

Query 2 — two-level linear, ``< ANY|ALL`` + ``NOT EXISTS``; Query 3 —
the same with the third block correlated to *both* enclosing blocks
(``ps_partkey=l_partkey`` becomes ``p_partkey [=|<>] l_partkey``) and an
``EXISTS | NOT EXISTS`` choice, in the three correlated-predicate
variants (a), (b), (c) of Section 5.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine.catalog import Database
from ..errors import InvalidArgumentError

#: correlated-predicate variants of Query 3 (paper's (a), (b), (c))
QUERY3_VARIANTS: Dict[str, Tuple[str, str]] = {
    "a": ("=", "="),
    "b": ("<>", "="),
    "c": ("=", "<>"),
}


def query1(date_from: str, date_to: str) -> str:
    """Paper Query 1 (Figure 4)."""
    return f"""
    select o_orderkey, o_orderpriority
    from orders
    where o_orderdate >= '{date_from}' and o_orderdate < '{date_to}'
      and o_totalprice > all
        (select l_extendedprice from lineitem
         where l_orderkey = o_orderkey
           and l_commitdate < l_receiptdate
           and l_shipdate < l_commitdate)
    """


def query2(
    quantifier: str,
    size_lo: int,
    size_hi: int,
    availqty_below: int,
    quantity_eq: int,
) -> str:
    """Paper Query 2 (Figures 5 and 6); *quantifier* is 'any' or 'all'."""
    if quantifier not in ("any", "all"):
        raise InvalidArgumentError("quantifier must be 'any' or 'all'")
    return f"""
    select p_partkey, p_name
    from part
    where p_size >= {size_lo} and p_size <= {size_hi}
      and p_retailprice < {quantifier}
        (select ps_supplycost from partsupp
         where ps_partkey = p_partkey and ps_availqty < {availqty_below}
           and not exists
             (select * from lineitem
              where ps_partkey = l_partkey and ps_suppkey = l_suppkey
                and l_quantity = {quantity_eq}))
    """


def query3(
    quantifier: str,
    existential: str,
    variant: str,
    size_lo: int,
    size_hi: int,
    availqty_below: int,
    quantity_eq: int,
) -> str:
    """Paper Query 3 (Figures 7, 8, 9).

    *quantifier* ∈ {'any', 'all'}, *existential* ∈ {'exists',
    'not exists'}, *variant* ∈ {'a', 'b', 'c'} selecting the correlated
    predicate pair of Section 5.2.
    """
    if quantifier not in ("any", "all"):
        raise InvalidArgumentError("quantifier must be 'any' or 'all'")
    if existential not in ("exists", "not exists"):
        raise InvalidArgumentError("existential must be 'exists' or 'not exists'")
    if variant not in QUERY3_VARIANTS:
        raise InvalidArgumentError(f"variant must be one of {sorted(QUERY3_VARIANTS)}")
    part_op, supp_op = QUERY3_VARIANTS[variant]
    return f"""
    select p_partkey, p_name
    from part
    where p_size >= {size_lo} and p_size <= {size_hi}
      and p_retailprice < {quantifier}
        (select ps_supplycost from partsupp
         where ps_partkey = p_partkey and ps_availqty < {availqty_below}
           and {existential}
             (select * from lineitem
              where p_partkey {part_op} l_partkey
                and ps_suppkey {supp_op} l_suppkey
                and l_quantity = {quantity_eq}))
    """


#: (figure, label) -> builder kwargs, for the harness's experiment index
PAPER_QUERIES = {
    "query1": ("Figure 4", "one-level ALL"),
    "query2a": ("Figure 5", "mixed ANY / NOT EXISTS, linear"),
    "query2b": ("Figure 6", "negative ALL / NOT EXISTS, linear"),
    "query3a": ("Figure 7", "mixed ALL / EXISTS, tree-correlated"),
    "query3b": ("Figure 8", "negative ALL / NOT EXISTS, tree-correlated"),
    "query3c": ("Figure 9", "positive ANY / EXISTS, tree-correlated"),
}


# --------------------------------------------------------------------- #
# Selection-constant pickers: hit a target block size on actual data.
# --------------------------------------------------------------------- #


def pick_date_window(db: Database, target_rows: int) -> Tuple[str, str]:
    """An o_orderdate window [X1, X2) selecting ≈ *target_rows* orders."""
    dates = sorted(db.relation("orders").column_values("o_orderdate"))
    if not dates:
        raise InvalidArgumentError("orders is empty")
    target = min(max(target_rows, 1), len(dates))
    start_index = 0
    lo = dates[start_index]
    end_index = min(start_index + target, len(dates) - 1)
    hi = dates[end_index]
    if hi == lo:
        hi = lo + "~"  # lexicographically just past lo
    return lo, hi


def pick_size_window(db: Database, target_rows: int) -> Tuple[int, int]:
    """A p_size range [lo, hi] selecting ≈ *target_rows* parts."""
    sizes = sorted(db.relation("part").column_values("p_size"))
    if not sizes:
        raise InvalidArgumentError("part is empty")
    total = len(sizes)
    target = min(max(target_rows, 1), total)
    # p_size is uniform on 1..50: pick the number of distinct size values
    # whose cumulative count first reaches the target.
    from collections import Counter

    counts = Counter(sizes)
    lo = 1
    acc = 0
    hi = 1
    for size in sorted(counts):
        acc += counts[size]
        hi = size
        if acc >= target:
            break
    return lo, hi


def pick_availqty(db: Database, target_rows: int) -> int:
    """An availqty cutoff Y selecting ≈ *target_rows* partsupp tuples."""
    values = sorted(db.relation("partsupp").column_values("ps_availqty"))
    if not values:
        raise InvalidArgumentError("partsupp is empty")
    target = min(max(target_rows, 1), len(values))
    return values[target - 1] + 1


def paper_query_suite(db: Database, target_rows: int = 32) -> List[Tuple[str, str]]:
    """The six paper queries (Figures 4-9) with selection constants
    derived from *db* so every block is non-trivially sized."""
    lo, hi = pick_date_window(db, target_rows)
    size_lo, size_hi = pick_size_window(db, target_rows)
    availqty = pick_availqty(db, target_rows * 2)
    quantities = db.relation("lineitem").column_values("l_quantity")
    quantity = quantities[0] if quantities else 1
    return [
        ("fig4_q1", query1(lo, hi)),
        ("fig5_q2a", query2("any", size_lo, size_hi, availqty, quantity)),
        ("fig6_q2b", query2("all", size_lo, size_hi, availqty, quantity)),
        (
            "fig7_q3a",
            query3("all", "exists", "a", size_lo, size_hi, availqty, quantity),
        ),
        (
            "fig8_q3b",
            query3("all", "not exists", "b", size_lo, size_hi, availqty, quantity),
        ),
        (
            "fig9_q3c",
            query3("any", "exists", "c", size_lo, size_hi, availqty, quantity),
        ),
    ]
