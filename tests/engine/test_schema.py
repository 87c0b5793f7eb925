"""Unit tests for schemas and reference resolution."""

import pytest

from repro.engine.schema import Column, Schema, parse_ref
from repro.errors import SchemaError


def make() -> Schema:
    return Schema(
        [
            Column("a", table="r"),
            Column("b", table="r"),
            Column("a", table="s"),
            Column("c", table="s", not_null=True),
        ]
    )


class TestColumn:
    def test_qualified(self):
        assert Column("a", table="r").qualified == "r.a"
        assert Column("a").qualified == "a"

    def test_renamed_table_keeps_constraints(self):
        col = Column("a", table="r", not_null=True).renamed_table("x")
        assert col.qualified == "x.a"
        assert col.not_null

    def test_parse_ref(self):
        assert parse_ref("r.a") == ("r", "a")
        assert parse_ref("a") == (None, "a")


class TestResolution:
    def test_qualified_lookup(self):
        s = make()
        assert s.index_of("r.a") == 0
        assert s.index_of("s.a") == 2

    def test_bare_unique(self):
        s = make()
        assert s.index_of("b") == 1
        assert s.index_of("c") == 3

    def test_bare_ambiguous(self):
        with pytest.raises(SchemaError, match="ambiguous"):
            make().index_of("a")

    def test_unknown(self):
        with pytest.raises(SchemaError, match="unknown"):
            make().index_of("r.zzz")

    def test_has(self):
        s = make()
        assert s.has("r.a")
        assert not s.has("a")  # ambiguous counts as not resolvable
        assert not s.has("zzz")

    @pytest.mark.parametrize(
        "schema, ref",
        [
            (make(), "r.a"),  # qualified
            (make(), "b"),  # bare and unique
            (make(), "a"),  # bare and ambiguous
            (make(), "zzz"),  # unknown
            (make(), "r.zzz"),  # unknown in a known table
            (make(), "x.a"),  # qualified with an unknown table
            # a bare column's own name beats the ambiguity of its name
            (Schema([Column("a"), Column("a", table="r")]), "a"),
            (Schema([Column("a"), Column("a", table="r")]), "r.a"),
        ],
    )
    def test_has_agrees_with_index_of(self, schema, ref):
        try:
            schema.index_of(ref)
            resolves = True
        except SchemaError:
            resolves = False
        assert schema.has(ref) is resolves

    def test_has_builds_no_error_message_on_a_miss(self, monkeypatch):
        def no_repr(self):
            raise AssertionError("a miss rendered the schema")

        s = make()
        monkeypatch.setattr(Schema, "__repr__", no_repr)
        for ref in ("a", "zzz", "r.zzz", "x.a"):
            assert not s.has(ref)

    def test_indices_of_preserves_order(self):
        s = make()
        assert s.indices_of(["s.c", "r.a"]) == (3, 0)

    def test_column_accessor(self):
        assert make().column("s.c").not_null


class TestConstruction:
    def test_duplicate_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([Column("a", table="r"), Column("a", table="r")])

    def test_same_name_different_tables_ok(self):
        s = Schema([Column("a", table="r"), Column("a", table="s")])
        assert len(s) == 2

    def test_of_helper(self):
        s = Schema.of("x", "y", table="t")
        assert s.names == ("t.x", "t.y")

    def test_equality_and_hash(self):
        assert make() == make()
        assert hash(make()) == hash(make())


class TestDerivedSchemas:
    def test_concat(self):
        left = Schema.of("x", table="l")
        right = Schema.of("y", table="r")
        combined = left.concat(right)
        assert combined.names == ("l.x", "r.y")

    def test_concat_conflict(self):
        left = Schema.of("x", table="l")
        with pytest.raises(SchemaError):
            left.concat(left)

    def test_project_reorders(self):
        s = make()
        p = s.project(["s.c", "r.b"])
        assert p.names == ("s.c", "r.b")

    def test_rename_table(self):
        s = Schema.of("x", "y", table="t").rename_table("alias")
        assert s.names == ("alias.x", "alias.y")
