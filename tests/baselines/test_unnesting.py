"""Unit tests for classical unnesting: soundness guards and the wrong
answers the paper warns about when the guards are ignored."""

import pytest

import repro
from repro.baselines import ClassicalUnnestingStrategy
from repro.engine import Column, Database, NULL
from repro.errors import PlanError, UnsoundRewriteError


@pytest.fixture()
def nullable_db():
    """R.A = 5 vs S.B = {2,3,4,NULL} — the paper's Section 2 example."""
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a", not_null=True)],
        [(1, 5), (2, 2)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b")],  # b NULLable
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (4, 1, NULL), (5, 2, 1)],
        primary_key="k",
    )
    return d


@pytest.fixture()
def notnull_db():
    """Same data minus the NULL, with NOT NULL declared on s.b."""
    d = Database()
    d.create_table(
        "r",
        [Column("k", not_null=True), Column("a", not_null=True)],
        [(1, 5), (2, 2)],
        primary_key="k",
    )
    d.create_table(
        "s",
        [Column("k", not_null=True), Column("rk"), Column("b", not_null=True)],
        [(1, 1, 2), (2, 1, 3), (3, 1, 4), (5, 2, 1)],
        primary_key="k",
    )
    return d


ALL_SQL = "select r.k from r where r.a > all (select s.b from s where s.rk = r.k)"
NOT_IN_SQL = "select r.k from r where r.a not in (select s.b from s where s.rk = r.k)"


class TestSoundnessGuard:
    def test_nullable_linked_attribute_refused(self, nullable_db):
        q = repro.compile_sql(ALL_SQL, nullable_db)
        strategy = ClassicalUnnestingStrategy()
        assert strategy.applicable(q, nullable_db) is not None
        with pytest.raises(UnsoundRewriteError, match="NULLable"):
            strategy.execute(q, nullable_db)

    def test_not_null_makes_rewrite_sound(self, notnull_db):
        prepared = repro.connect(notnull_db).prepare(ALL_SQL)
        q = prepared.query
        strategy = ClassicalUnnestingStrategy()
        assert strategy.applicable(q, notnull_db) is None
        out = strategy.execute(q, notnull_db)
        oracle = prepared.execute(strategy="nested-iteration")
        assert out == oracle

    def test_unguarded_rewrite_gives_wrong_answer(self, nullable_db):
        """The heart of the paper's argument: with NULLs present, the
        antijoin rewrite *keeps* r1 (no tuple violates 5 > b via non-NULL
        comparison) while SQL semantics reject it (UNKNOWN)."""
        prepared = repro.connect(nullable_db).prepare(ALL_SQL)
        q = prepared.query
        unsound = ClassicalUnnestingStrategy(respect_null_soundness=False)
        wrong = unsound.execute(q, nullable_db).sorted().rows
        oracle = (
            prepared.execute(strategy="nested-iteration").sorted().rows
        )
        assert (1,) in wrong       # antijoin keeps it
        assert (1,) not in oracle  # SQL does not
        assert wrong != oracle

    def test_unguarded_not_in_wrong_too(self, nullable_db):
        prepared = repro.connect(nullable_db).prepare(NOT_IN_SQL)
        q = prepared.query
        unsound = ClassicalUnnestingStrategy(respect_null_soundness=False)
        wrong = unsound.execute(q, nullable_db)
        oracle = prepared.execute(strategy="nested-iteration")
        assert wrong != oracle


class TestPositiveRewrites:
    """Positive operators are always soundly rewritable."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select r.k from r where exists (select * from s where s.rk = r.k)",
            "select r.k from r where r.a in (select s.b from s where s.rk = r.k)",
            "select r.k from r where r.a < some (select s.b from s where s.rk = r.k)",
            "select r.k from r where not exists (select * from s where s.rk = r.k)",
        ],
    )
    def test_matches_oracle_even_with_nulls(self, nullable_db, sql):
        prepared = repro.connect(nullable_db).prepare(sql)
        q = prepared.query
        strategy = ClassicalUnnestingStrategy()
        assert strategy.applicable(q, nullable_db) is None
        out = strategy.execute(q, nullable_db)
        oracle = prepared.execute(strategy="nested-iteration")
        assert out == oracle


class TestShapeLimits:
    def test_non_adjacent_correlation_rejected(self, nullable_db):
        """Query 3's shape: the inner block correlates with the outermost
        block — semijoin/antijoin folding loses needed attributes."""
        nullable_db.create_table(
            "t",
            [Column("k", not_null=True), Column("rk"), Column("c")],
            [(1, 1, 1)],
            primary_key="k",
        )
        sql = """
        select r.k from r where exists
          (select * from s where s.rk = r.k and exists
             (select * from t where t.rk = r.k))
        """
        q = repro.compile_sql(sql, nullable_db)
        strategy = ClassicalUnnestingStrategy()
        reason = strategy.applicable(q, nullable_db)
        assert reason is not None and "non-adjacent" in reason
        with pytest.raises(PlanError):
            strategy.execute(q, nullable_db)

    def test_two_level_linear_ok(self, notnull_db):
        notnull_db.create_table(
            "t",
            [Column("k", not_null=True), Column("sk"), Column("c")],
            [(1, 1, 1), (2, 3, 2)],
            primary_key="k",
        )
        sql = """
        select r.k from r where exists
          (select * from s where s.rk = r.k and not exists
             (select * from t where t.sk = s.k))
        """
        prepared = repro.connect(notnull_db).prepare(sql)
        q = prepared.query
        strategy = ClassicalUnnestingStrategy()
        assert strategy.applicable(q, notnull_db) is None
        out = strategy.execute(q, notnull_db)
        oracle = prepared.execute(strategy="nested-iteration")
        assert out == oracle


class TestOuterAttributeGuard:
    def test_nullable_linking_attribute_also_unsound(self):
        """NULL θ ALL {nonempty} is UNKNOWN but an antijoin keeps the row;
        the guard must cover the outer side too."""
        d = Database()
        d.create_table(
            "r",
            [Column("k", not_null=True), Column("a")],  # a NULLable
            [(1, NULL)],
            primary_key="k",
        )
        d.create_table(
            "s",
            [Column("k", not_null=True), Column("rk"), Column("b", not_null=True)],
            [(1, 1, 2)],
            primary_key="k",
        )
        prepared = repro.connect(d).prepare(ALL_SQL)
        q = prepared.query
        with pytest.raises(UnsoundRewriteError, match="linking attribute"):
            ClassicalUnnestingStrategy().execute(q, d)
        # and indeed the unguarded rewrite is wrong on this data:
        wrong = ClassicalUnnestingStrategy(respect_null_soundness=False).execute(q, d)
        oracle = prepared.execute(strategy="nested-iteration")
        assert wrong != oracle
