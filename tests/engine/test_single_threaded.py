"""Nothing in an execution starts a thread.

Every vector kernel runs once over its whole input, on the thread that
called ``execute``.  The ``nested-relational-parallel`` name and the
``threads`` option are still accepted, but they change nothing: the run
below asks for two threads and must leave the process's thread count,
its span kinds and its rows exactly what the plain vectorized strategy
gives.  The AST half fails as soon as a module under ``src/repro``
imports ``concurrent.futures`` or constructs a ``threading.Thread``,
the way ``tests/core/test_single_resolution.py`` fails on a second
resolution site.
"""

from __future__ import annotations

import ast
import pathlib
import threading

import repro
from repro.engine.trace import trace_invariant_violations

PACKAGE = pathlib.Path(repro.__file__).parent

SQL = (
    "select o_orderkey from orders where o_totalprice > all "
    "(select l_extendedprice from lineitem where l_orderkey = o_orderkey)"
)

PARALLEL = {"strategy": "nested-relational-parallel", "threads": 2}


def test_two_threads_run_inline_and_answer_as_vectorized(tiny_tpch_nulls):
    prepared = repro.connect(tiny_tpch_nulls).prepare(SQL)
    expected = prepared.execute(strategy="nested-relational-vectorized")
    before = threading.active_count()
    result = prepared.execute(**PARALLEL)
    traced, trace = prepared.trace(**PARALLEL)
    assert threading.active_count() == before
    assert result.rows == traced.rows == expected.rows
    assert trace.roots[0].attrs["strategy"] == "nested-relational-vectorized"
    assert not [span for span in trace.spans() if span.kind == "morsel"]
    assert not trace_invariant_violations(trace)


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield (
            path.relative_to(PACKAGE).as_posix(),
            ast.parse(path.read_text(), filename=str(path)),
        )


def test_no_module_imports_concurrent_futures():
    offenders = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.startswith("concurrent") for name in names):
                offenders.append(f"{module}:{node.lineno}")
    assert not offenders, offenders


def test_no_module_constructs_a_thread():
    offenders = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if name == "Thread":
                offenders.append(f"{module}:{node.lineno}")
    assert not offenders, offenders
