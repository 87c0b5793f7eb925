"""Unit tests for materialized relations."""

import pytest

from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import NULL
from repro.errors import SchemaError


def rel(rows, names=("a", "b")) -> Relation:
    return Relation(Schema.of(*names, table="t"), rows)


class TestConstruction:
    def test_rows_coerced_to_tuples(self):
        r = rel([[1, 2], (3, 4)])
        assert r.rows == [(1, 2), (3, 4)]

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError, match="arity"):
            rel([(1, 2, 3)])

    def test_from_columns_is_the_zip(self):
        schema = Schema.of("a", "b", table="t")
        cols = [[3, NULL, 1, 3], ["x", "y", NULL, "x"]]
        r = Relation.from_columns(schema, cols)
        reference = Relation(schema, zip(*cols))
        assert r.rows == reference.rows  # row order, not only the bag
        assert r == reference
        assert r.schema is schema
        assert all(type(row) is tuple for row in r.rows)
        assert Relation.from_columns(schema, [[], []]).rows == []

    def test_from_columns_checks_width_once(self):
        schema = Schema.of("a", "b", table="t")
        with pytest.raises(SchemaError, match="schema width 2"):
            Relation.from_columns(schema, [[1, 2]])
        with pytest.raises(SchemaError, match="schema width 2"):
            Relation.from_columns(schema, [[1], [2], [3]])

    def test_from_columns_rejects_ragged_columns(self):
        schema = Schema.of("a", "b", table="t")
        with pytest.raises(SchemaError, match="ragged"):
            Relation.from_columns(schema, [[1, 2], [1]])


class TestBagEquality:
    def test_order_insensitive(self):
        assert rel([(1, 2), (3, 4)]) == rel([(3, 4), (1, 2)])

    def test_duplicates_matter(self):
        assert rel([(1, 2), (1, 2)]) != rel([(1, 2)])

    def test_schema_names_matter(self):
        a = rel([(1, 2)])
        b = Relation(Schema.of("a", "b", table="other"), [(1, 2)])
        assert a != b

    def test_nulls_compare_positionally(self):
        assert rel([(NULL, 1)]) == rel([(NULL, 1)])
        assert rel([(NULL, 1)]) != rel([(1, NULL)])


class TestAccessors:
    def test_column_values(self):
        r = rel([(1, 2), (3, 4)])
        assert r.column_values("t.a") == [1, 3]

    def test_distinct_groups_nulls(self):
        r = rel([(NULL, 1), (NULL, 1), (1, 1)])
        assert len(r.distinct()) == 2

    def test_distinct_keeps_first_occurrence_order(self):
        r = rel([(2, 0), (1, 0), (2, 0)])
        assert r.distinct().rows == [(2, 0), (1, 0)]

    def test_sorted_nulls_first(self):
        r = rel([(1, 1), (NULL, 9)])
        assert r.sorted().rows[0] == (NULL, 9)

    def test_project(self):
        r = rel([(1, 2)])
        p = r.project(["t.b"])
        assert p.rows == [(2,)]
        assert p.schema.names == ("t.b",)

    def test_project_duplicates_not_removed(self):
        r = rel([(1, 2), (1, 3)])
        assert len(r.project(["t.a"])) == 2

    def test_rename_table(self):
        r = rel([(1, 2)]).rename_table("x")
        assert r.schema.names == ("x.a", "x.b")
        assert r.rows == [(1, 2)]


class TestDisplay:
    def test_to_table_contains_null_literal(self):
        text = rel([(NULL, 1)]).to_table()
        assert "null" in text
        assert "t.a" in text

    def test_to_table_truncation(self):
        r = rel([(i, i) for i in range(10)])
        text = r.to_table(max_rows=3)
        assert "7 more rows" in text
