#!/usr/bin/env python
"""NULL semantics: why classical unnesting is unsound — and how the
nested relational approach stays correct.

Walks the paper's Section 2 argument concretely:

1. ``R.A = 5`` against ``S.B = {2, 3, 4, NULL}``: the ALL predicate is
   UNKNOWN, but the MAX rewrite and the antijoin rewrite both say TRUE.
2. The guarded classical strategy refuses the rewrite (raises
   UnsoundRewriteError); unguarded, it returns the wrong rows.
3. The nested relational approach gets it right *without* any NOT NULL
   constraint, because empty sets are detected with primary-key NULL
   markers and genuine NULL members stay in the set.

Run:  python examples/null_semantics.py
"""

from __future__ import annotations

import repro
from repro.baselines import ClassicalUnnestingStrategy
from repro.engine import Column, Database, NULL
from repro.errors import UnsoundRewriteError


def build_db() -> Database:
    db = Database()
    db.create_table(
        "r",
        [Column("k", not_null=True), Column("a", not_null=True)],
        [(1, 5), (2, 2), (3, 7)],
        primary_key="k",
    )
    db.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b")],  # b is NULLable
        [
            (1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 1, NULL),  # r1 sees {2,3,4,NULL}
            (5, 2, 1),                                      # r2 sees {1}
            # r3 sees the empty set
        ],
        primary_key="k",
    )
    return db


SQL = "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)"


def main() -> None:
    db = build_db()
    print("Data: r1.a=5 vs S.B={2,3,4,NULL}; r2.a=2 vs {1}; r3.a=7 vs {}")
    print(f"\nQuery: {SQL}\n")

    print("SQL truth, tuple by tuple:")
    print("  r1: 5 > ALL {2,3,4,NULL}  -> UNKNOWN (NULL comparison) -> excluded")
    print("  r2: 2 > ALL {1}           -> TRUE                      -> included")
    print("  r3: 7 > ALL {}            -> TRUE  (vacuous)           -> included")

    query = repro.connect(db).prepare(SQL)
    oracle = query.execute(strategy="nested-iteration").sorted()
    print(f"\nTuple-iteration oracle:        {oracle.rows}")

    nr = query.execute(strategy="nested-relational").sorted()
    print(f"Nested relational approach:    {nr.rows}  "
          f"{'(correct)' if nr == oracle else '(WRONG)'}")

    print("\nClassical ALL -> antijoin rewrite:")
    guarded = ClassicalUnnestingStrategy()
    try:
        guarded.execute(repro.compile_sql(SQL, db), db)
    except UnsoundRewriteError as error:
        print(f"  guarded strategy refuses:    {error}")

    unguarded = ClassicalUnnestingStrategy(respect_null_soundness=False)
    wrong = unguarded.execute(repro.compile_sql(SQL, db), db).sorted()
    print(f"  unguarded antijoin returns:  {wrong.rows}   "
          f"<- r1 wrongly included!")

    print("\nWhy the rewrites fail (paper Section 2):")
    print("  R.A > ALL (SELECT S.B ...)  is NOT an antijoin on R.A <= S.B:")
    print("  no S row with B <= 5 exists non-NULL-ly, so the antijoin keeps")
    print("  r1 — but SQL's three-valued logic says the predicate is UNKNOWN.")
    print("  The MAX rewrite (R.A > MAX(S.B)) fails the same way: MAX")
    print("  ignores NULLs, giving 5 > 4 = TRUE.")

    print("\nHow the nested relational approach distinguishes {} from {NULL}:")
    query = repro.compile_sql(SQL, db)
    from repro.core.reduce import reduce_all
    from repro.core.nest import nest
    from repro.engine.operators import left_outer_hash_join

    reduced = reduce_all(query, db)
    joined = left_outer_hash_join(
        reduced[1].relation, reduced[2].relation, ["r.k"], ["s.rk"]
    )
    nested = nest(
        joined,
        by=[c for c in joined.schema.names if c.startswith("r.") or c == "_rid1"],
        keep=["s.b", "_rid2"],
    )
    print(nested.to_table())
    print("  r3's group is {(null, null)}: its member's *rid* is NULL — an")
    print("  empty-set marker from the outer join, excluded before the ALL.")
    print("  r1's NULL member carries a live rid: a genuine NULL in the set.")


if __name__ == "__main__":
    main()
