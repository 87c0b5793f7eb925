#!/usr/bin/env python
"""Quickstart: the paper's running example, end to end.

Builds the relations R, S, T of the paper's Figure 1, shows the extended
nested relational algebra working step by step (outer joins -> nest ->
linking selections, Figures 1-2), then runs the full Query Q of
Section 2 through several evaluation strategies and checks they agree.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.core.linking import SetPredicate
from repro.core.nest import nest
from repro.core.selection import linking_selection, pseudo_selection
from repro.engine import Column, Database, NULL
from repro.engine.expressions import Col, Comparison
from repro.engine.operators import left_outer_hash_join


def build_paper_database() -> Database:
    """Figure 1's relations, NULLs included (D, I, L are the keys)."""
    db = Database()
    db.create_table(
        "R",
        [Column("A"), Column("B"), Column("C"), Column("D", not_null=True)],
        [(1, 2, 3, 1), (2, 3, 2, 2), (5, 2, 3, 3), (NULL, NULL, 5, 4)],
        primary_key="D",
    )
    db.create_table(
        "S",
        [Column("E"), Column("F"), Column("G"), Column("H"), Column("I", not_null=True)],
        [(7, 5, 1, 5, 1), (2, 5, 2, 2, 2), (2, 5, 3, 4, 3), (4, 6, 3, NULL, 4)],
        primary_key="I",
    )
    db.create_table(
        "T",
        [Column("J"), Column("K"), Column("L", not_null=True)],
        [(3, 3, 1), (NULL, 4, 2), (2, 2, 3)],
        primary_key="L",
    )
    return db


QUERY_Q = """
select R.B, R.C, R.D
from R
where R.A > 1
  and R.B not in
    (select S.E from S
     where S.F = 5 and R.D = S.G
       and S.H > all
         (select T.J from T
          where T.K = R.C and T.L <> S.I))
"""


def algebra_walkthrough(db: Database) -> None:
    """Reproduce Figures 1(d) and 2 with the algebra operators."""
    print("=" * 72)
    print("Extended nested relational algebra, step by step (Figures 1-2)")
    print("=" * 72)

    r, s, t = db.relation("R"), db.relation("S"), db.relation("T")

    print("\n-- Temp1: (R LEFT JOIN S ON R.D=S.G) LEFT JOIN T "
          "ON T.K=R.C AND T.L<>S.I, projected --")
    rs = left_outer_hash_join(r, s, ["R.D"], ["S.G"])
    rst = left_outer_hash_join(
        rs, t, ["R.C"], ["T.K"],
        residual=Comparison("<>", Col("T.L"), Col("S.I")),
    )
    temp1 = rst.project(
        ["R.B", "R.C", "R.D", "S.E", "S.H", "S.I", "T.J", "T.L"]
    )
    print(temp1.to_table())

    print("\n-- Temp2: nest by {R.B,R.C,R.D,S.E,S.H,S.I} keeping {T.J,T.L} --")
    temp2 = nest(
        temp1,
        by=["R.B", "R.C", "R.D", "S.E", "S.H", "S.I"],
        keep=["T.J", "T.L"],
    )
    print(temp2.to_table())

    print("\n-- Temp3: pseudo-selection sigma*_{S.H > ALL {T.J}}, "
          "padding {S.E,S.H,S.I} on failure --")
    temp3 = pseudo_selection(
        temp2, SetPredicate("all", ">"), "S.H", "T.J",
        pk_ref="T.L", pad_refs=["S.E", "S.H", "S.I"],
    )
    print(temp3.to_table())
    print("note: the failing S tuple is padded, not dropped — its R tuple")
    print("      must survive for the NOT IN test one level up.")

    print("\n-- Temp4: strict selection sigma_{S.H > ALL {T.J}} --")
    temp4 = linking_selection(
        temp2, SetPredicate("all", ">"), "S.H", "T.J", pk_ref="T.L"
    )
    print(temp4.to_table())


def run_query_q(db: Database) -> None:
    print()
    print("=" * 72)
    print("Query Q (Section 2) through every applicable strategy")
    print("=" * 72)
    prepared = repro.connect(db).prepare(QUERY_Q)
    query = prepared.query
    print("\nQuery structure:")
    print(query.describe())
    print("\nTree expression (Figure 3a):")
    print(repro.TreeExpression(query).render())

    print("\nResults:")
    reference = None
    for strategy in (
        "nested-iteration",
        "nested-relational",
        "nested-relational-optimized",
        "system-a-native",
        "auto",
    ):
        result = prepared.execute(strategy=strategy).sorted()
        marker = ""
        if reference is None:
            reference = result
        elif result == reference:
            marker = "  (agrees with oracle)"
        else:
            marker = "  *** MISMATCH ***"
        print(f"  {strategy:32s} -> {result.rows}{marker}")
    print("\nExpected: only (B=3, C=2, D=2) qualifies — the S tuple of the")
    print("other candidate passes its inner ALL test, so R.B = 2 IN {2}.")


def main() -> None:
    db = build_paper_database()
    print("Database:")
    print(db.summary())
    print()
    algebra_walkthrough(db)
    run_query_q(db)


if __name__ == "__main__":
    main()
