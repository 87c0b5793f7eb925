"""Unit tests for the span tracer (``repro.engine.trace``): tree
construction, cardinality contracts, close/unwind robustness, Metrics
attribution, rendering, and the serialized-form validator."""

from __future__ import annotations

import pytest

from repro.engine.expressions import cmp
from repro.engine.metrics import collect
from repro.engine.operators import filter_relation, left_outer_hash_join
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import NULL
from repro.engine.trace import (
    CONTRACT_EXPANDING,
    CONTRACT_FILTERING,
    CONTRACT_PRESERVING,
    TRACE_FORMAT_VERSION,
    Span,
    Tracer,
    current_tracer,
    note_rows,
    op_span,
    reconcile_with_metrics,
    render_trace,
    trace_invariant_violations,
    tracing,
    validate_trace_dict,
)


def rel():
    """A four-row relation t(a, k), one NULL in a."""
    return Relation(
        Schema.of("a", "k", table="t"),
        [(1, 1), (2, 2), (NULL, 3), (4, 4)],
    )


KEEP_ALL = cmp("t.k", ">", 0)  # true for every row
DROP_NULL = cmp("t.a", ">", 0)  # true unless t.a is NULL


class TestAmbientTracer:
    def test_disabled_by_default(self):
        assert current_tracer() is None

    def test_scope_installs_and_restores(self):
        with tracing():
            assert current_tracer() is not None
        assert current_tracer() is None

    def test_scopes_nest(self):
        with tracing() as outer:
            first = current_tracer()
            with tracing() as inner:
                assert current_tracer() is not first
                with op_span("x"):
                    pass
            assert current_tracer() is first
        assert [s.name for s in inner.spans()] == ["x"]
        assert list(outer.spans()) == []

    def test_op_span_yields_none_when_disabled(self):
        with op_span("x") as span:
            assert span is None
        # untraced, every call hands back the one shared no-op manager
        assert op_span("x") is op_span("y", kind="phase", attr=1)

    def test_finish_closes_leaked_spans(self):
        with tracing() as trace:
            tracer = current_tracer()
            tracer.open("leaked")
        assert all(s.closed for s in trace.spans())


class TestSpanTree:
    def test_nesting_follows_open_order(self):
        with tracing() as trace:
            with op_span("a"):
                with op_span("b"):
                    pass
                with op_span("c"):
                    pass
        (root,) = trace.roots
        assert [c.name for c in root.children] == ["b", "c"]

    def test_sibling_roots(self):
        with tracing() as trace:
            with op_span("a"):
                pass
            with op_span("b"):
                pass
        assert [r.name for r in trace.roots] == ["a", "b"]

    def test_trace_root_property(self):
        with tracing() as trace:
            with op_span("only"):
                pass
        assert trace.root is not None and trace.root.name == "only"
        with tracing() as trace:
            with op_span("a"):
                pass
            with op_span("b"):
                pass
        assert trace.root is None  # ambiguous forest

    def test_close_is_idempotent(self):
        span = Span("x")
        span._close()
        end = span.t_end
        span._close()
        assert span.t_end == end

    def test_late_close_does_not_pop_live_ancestors(self):
        """An abandoned input iterator may be finalized after its parent
        closed over it; that close must not unwind the live stack."""
        tracer = Tracer()
        outer = tracer.open("outer")
        inner = tracer.open("inner")
        tracer.close(outer)  # pops through inner
        live = tracer.open("live")
        tracer.close(inner)  # inner is long gone — must be a no-op
        assert tracer._stack == [live]
        tracer.close(live)
        assert tracer._stack == []

    def test_note_rows(self):
        note_rows(None, 3, 4)  # tracing off: nothing to record
        span = Span("x")
        note_rows(span, 2, 5)
        note_rows(span, 1)
        assert list(span.counters.items()) == [("rows_in", 5), ("rows_out", 3)]

    def test_counters(self):
        span = Span("x")
        span.add("rows_out")
        span.add("rows_out", 2)
        span.set("hash_table_keys", 7)
        span.set_max("peak_group", 3)
        span.set_max("peak_group", 2)
        assert span.counters == {
            "rows_out": 3,
            "hash_table_keys": 7,
            "peak_group": 3,
        }


class TestOperatorIntegration:
    def test_one_span_per_operator_call(self):
        with collect():
            with tracing() as trace:
                out = filter_relation(rel(), DROP_NULL)
        assert len(out) == 3
        (span,) = trace.spans()
        assert span.name == "Filter" and span.children == []
        assert span.counters == {"rows_in": 4, "rows_out": 3}
        assert trace_invariant_violations(trace) == []

    def test_contracts_recorded(self):
        with collect():
            with tracing() as trace:
                joined = filter_relation(rel(), KEEP_ALL)
                left_outer_hash_join(joined, rel().rename_table("u"),
                                     ["t.k"], ["u.a"])
        (filter_span,) = trace.find("Filter")
        (join_span,) = trace.find("LeftOuterHashJoin")
        assert filter_span.contract == CONTRACT_FILTERING
        assert join_span.contract == CONTRACT_EXPANDING
        assert join_span.attrs == {"on": "t.k=u.a"}

    def test_operators_untouched_when_disabled(self):
        with collect():
            out = filter_relation(rel(), KEEP_ALL)
        assert len(out) == 4
        assert current_tracer() is None


class TestInvariantChecks:
    def _operator(self, name, contract, rows_in, rows_out, children=()):
        span = Span(name, kind="operator", contract=contract)
        span.set("rows_in", rows_in)
        span.set("rows_out", rows_out)
        span.children.extend(children)
        span._close()
        return span

    def _as_trace(self, *roots):
        tracer = Tracer()
        tracer.roots.extend(roots)
        from repro.engine.trace import Trace

        return Trace(tracer)

    def test_clean_tree_passes(self):
        child = self._operator("src", CONTRACT_PRESERVING, 4, 4)
        parent = self._operator("filter", CONTRACT_FILTERING, 4, 2, [child])
        assert trace_invariant_violations(self._as_trace(parent)) == []

    @pytest.mark.parametrize(
        "contract,rows_in,rows_out",
        [
            (CONTRACT_FILTERING, 2, 3),
            (CONTRACT_PRESERVING, 2, 1),
            (CONTRACT_EXPANDING, 3, 2),
        ],
    )
    def test_contract_violations(self, contract, rows_in, rows_out):
        span = self._operator("x", contract, rows_in, rows_out)
        violations = trace_invariant_violations(self._as_trace(span))
        assert len(violations) == 1 and contract.rstrip("ing") in violations[0].replace("row-preserving", "preserv")

    def test_unclosed_span_flagged(self):
        span = Span("x")
        violations = trace_invariant_violations(self._as_trace(span))
        assert any("never closed" in v for v in violations)

    def test_negative_counter_flagged(self):
        span = self._operator("x", None, 1, 1)
        span.set("rows_out", -1)
        violations = trace_invariant_violations(self._as_trace(span))
        assert any("negative" in v for v in violations)

    def test_root_cardinality_check(self):
        root = Span("execute", kind="root")
        root.set("rows_out", 3)
        root._close()
        trace = self._as_trace(root)
        assert trace_invariant_violations(trace, result_cardinality=3) == []
        violations = trace_invariant_violations(trace, result_cardinality=5)
        assert any("result has 5" in v for v in violations)


class TestMetricsAttribution:
    def test_self_metrics_telescope(self):
        with collect() as metrics:
            with tracing() as trace:
                filter_relation(rel(), KEEP_ALL)
        assert reconcile_with_metrics(trace, metrics.snapshot()) == []

    def test_reconcile_reports_drift(self):
        with collect() as metrics:
            with tracing() as trace:
                filter_relation(rel(), KEEP_ALL)
            metrics.add("rows_scanned", 100)  # outside any span
        drift = reconcile_with_metrics(trace, metrics.snapshot())
        assert any("rows_scanned" in v for v in drift)


class TestRendering:
    def test_render_lines_and_counters(self):
        with collect():
            with tracing() as trace:
                filter_relation(rel(), KEEP_ALL)
        text = render_trace(trace, timings=False)
        lines = text.splitlines()
        assert len(lines) == 1 and lines[0].startswith("Filter")
        assert "rows=4→4" in lines[0]
        assert "predicate_evals=4" in lines[0]
        assert "ms" not in text
        assert "ms" in render_trace(trace, timings=True)


class TestSerialization:
    def _traced_run(self):
        with collect():
            with tracing() as trace:
                filter_relation(rel(), KEEP_ALL)
        return trace

    def test_to_dict_valid(self):
        data = self._traced_run().to_dict()
        assert data["version"] == TRACE_FORMAT_VERSION
        assert validate_trace_dict(data) == []

    def test_json_round_trip(self):
        import json

        trace = self._traced_run()
        assert validate_trace_dict(json.loads(trace.to_json())) == []

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.update(version=99), "version"),
            (lambda d: d.update(spans={}), "'spans' must be a list"),
            (lambda d: d["spans"][0].update(name=""), "'name'"),
            (lambda d: d["spans"][0].update(contract="bogus"), "contract"),
            (lambda d: d["spans"][0].update(wall_seconds=-1), "wall_seconds"),
            (lambda d: d["spans"][0]["counters"].update(x="y"), "counters"),
            (lambda d: d["spans"][0].update(children=None), "children"),
        ],
    )
    def test_validator_rejects(self, mutate, message):
        data = self._traced_run().to_dict()
        mutate(data)
        problems = validate_trace_dict(data)
        assert problems and any(message in p for p in problems)

    @pytest.mark.parametrize("retired", [1, 2, 3])
    def test_retired_versions_rejected_by_validator_and_schema(self, retired):
        """Nothing emits trace versions 1-3 any more; neither the builtin
        validator nor the JSON schema accepts them."""
        import json
        import pathlib

        document = {"version": retired, "spans": []}
        assert any("version" in p for p in validate_trace_dict(document))
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (pathlib.Path(__file__).parents[2] / "schemas"
             / "trace.schema.json").read_text()
        )
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(document, schema)
        document["version"] = TRACE_FORMAT_VERSION
        assert validate_trace_dict(document) == []
        jsonschema.validate(document, schema)
