#!/usr/bin/env python
"""Validate serialized execution traces against schemas/trace.schema.json.

Usage::

    python scripts/validate_trace.py trace.json [more.json ...]

Accepts bare trace documents (``Trace.to_dict()`` output, as written
by ``repro run --trace=json --trace-out``), EXPLAIN ANALYZE JSON
documents (``repro explain --analyze --format json``, whose ``spans``
key holds the trace document), or ``BENCH_*.json`` benchmark
artifacts, whose measurements embed one trace per strategy.

Validation runs twice when possible: the hand-rolled structural check in
:func:`repro.engine.trace.validate_trace_dict` (no dependencies), plus
``jsonschema`` against the schema file if the package is importable.
Exits non-zero on the first invalid document.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.engine.trace import (  # noqa: E402
    TRACE_FORMAT_VERSION,
    validate_trace_dict,
)

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "schemas",
    "trace.schema.json",
)


def _extract_traces(document):
    """Yield (label, trace_dict) pairs from a trace, an EXPLAIN ANALYZE
    document or a bench artifact."""
    if isinstance(document.get("spans"), dict):
        yield "explain", document["spans"]
        return
    if "spans" in document:
        yield "trace", document
        return
    for experiment in document.get("experiments", []):
        for point in experiment.get("points", []):
            for name, m in point.get("measurements", {}).items():
                trace = m.get("trace")
                if trace is not None:
                    yield f"{experiment.get('experiment_id')}/{point.get('label')}/{name}", trace


def _jsonschema_check(trace, schema):
    try:
        import jsonschema
    except ImportError:
        return None
    try:
        jsonschema.validate(trace, schema)
    except jsonschema.ValidationError as exc:
        return [str(exc)]
    return []


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    with open(SCHEMA_PATH) as handle:
        schema = json.load(handle)
    checked = 0
    for path in argv:
        with open(path) as handle:
            document = json.load(handle)
        traces = list(_extract_traces(document))
        if not traces:
            print(f"{path}: no traces found", file=sys.stderr)
            return 1
        for label, trace in traces:
            problems = validate_trace_dict(trace)
            schema_problems = _jsonschema_check(trace, schema)
            if schema_problems:
                problems = problems + schema_problems
            if problems:
                print(f"{path} [{label}]: INVALID", file=sys.stderr)
                for problem in problems:
                    print(f"  - {problem}", file=sys.stderr)
                return 1
            checked += 1
        probe = {"version": TRACE_FORMAT_VERSION, "spans": []}
        via = "builtin+jsonschema" if _jsonschema_check(probe, schema) == [] else "builtin"
        print(f"{path}: {len(traces)} trace(s) valid ({via})")
    print(f"validated {checked} trace(s) across {len(argv)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
