"""Unit tests for the selection operator."""

from repro.engine.expressions import Col, Comparison, Literal, cmp
from repro.engine.operators import filter_relation
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import NULL


def rel(rows):
    return Relation(Schema.of("a", "b", table="t"), rows)


class TestFilter:
    def test_keeps_only_definitely_true(self):
        """FALSE and UNKNOWN rows are both filtered out (SQL WHERE)."""
        r = rel([(1, 1), (2, 1), (NULL, 1)])
        out = filter_relation(r, cmp("t.a", "=", 1))
        assert out.rows == [(1, 1)]

    def test_schema_preserved(self):
        out = filter_relation(rel([]), cmp("t.a", "=", 1))
        assert out.schema.names == ("t.a", "t.b")

    def test_composes_with_projection(self):
        r = rel([(1, 2), (2, 2), (3, 3)])
        out = filter_relation(
            r, Comparison("=", Col("t.b"), Literal(2))
        ).project(["t.a"])
        assert out.rows == [(1,), (2,)]
