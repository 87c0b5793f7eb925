"""Unit tests for the nested relational model (Definitions 1-2)."""

import pytest

from repro.core.nested import NestedRelation, NestedSchema, SubSchema
from repro.engine.schema import Column, Schema
from repro.engine.types import NULL
from repro.errors import SchemaError


def flat_schema():
    return NestedSchema.flat(Schema.of("a", "b", table="t"))


def one_level():
    sub = NestedSchema.flat(Schema.of("x", "y", table="s"))
    return NestedSchema(
        [Column("a", table="t"), SubSchema("grp", sub)]
    )


def two_level():
    inner = NestedSchema.flat(Schema.of("z", table="u"))
    mid = NestedSchema([Column("x", table="s"), SubSchema("inner", inner)])
    return NestedSchema([Column("a", table="t"), SubSchema("mid", mid)])


class TestDepth:
    def test_flat_depth_zero(self):
        assert flat_schema().depth == 0

    def test_one_level(self):
        assert one_level().depth == 1

    def test_two_level(self):
        """Definition 1: depth(R) = 1 + max depth of subschemas."""
        assert two_level().depth == 2

    def test_depth_max_over_subschemas(self):
        schema = NestedSchema(
            [
                Column("a", table="t"),
                SubSchema("flat1", flat_schema()),
                SubSchema("deep", one_level()),
            ]
        )
        assert schema.depth == 2


class TestSchemaAccess:
    def test_component_names_unique(self):
        with pytest.raises(SchemaError, match="duplicate"):
            NestedSchema([Column("a", table="t"), Column("a", table="t")])

    def test_index_of_qualified(self):
        s = one_level()
        assert s.index_of("t.a") == 0
        assert s.index_of("grp") == 1

    def test_index_of_bare_atomic(self):
        assert one_level().index_of("a") == 0

    def test_unknown_component(self):
        with pytest.raises(SchemaError):
            one_level().index_of("zzz")

    def test_subschema_accessor(self):
        sub = one_level().subschema("grp")
        assert sub.schema.depth == 0

    def test_subschema_accessor_rejects_atomic(self):
        with pytest.raises(SchemaError):
            one_level().subschema("t.a")

    def test_atomic_schema(self):
        assert one_level().atomic_schema().names == ("t.a",)

    def test_to_flat_requires_depth_zero(self):
        assert flat_schema().to_flat().names == ("t.a", "t.b")
        with pytest.raises(SchemaError):
            one_level().to_flat()


class TestNestedRelation:
    def test_construction_checks_arity(self):
        with pytest.raises(SchemaError):
            NestedRelation(one_level(), [(1,)])

    def test_group_accessor(self):
        r = NestedRelation(one_level(), [(1, ((10, 20), (30, 40)))])
        assert r.group(r.rows[0], "grp") == ((10, 20), (30, 40))

    def test_to_table_renders_sets(self):
        r = NestedRelation(one_level(), [(1, ((10, NULL),))])
        text = r.to_table()
        assert "{(10, null)}" in text
        assert "grp" in text

    def test_depth_property(self):
        assert NestedRelation(two_level()).depth == 2
