"""A span opens in exactly one way: through ``engine.trace.op_span``.

Operators, phases, the baselines' filter phases and the root
``execute`` and ``governor`` spans all open through ``op_span``, which
marks a span aborted when its block raises and closes it through
``Tracer.close``.  This guard walks the AST of ``src/repro`` and fails
as soon as a second way grows back — a hand-paired ``tracer.open`` /
``tracer.close`` outside ``engine/trace.py``, a generator ``op_span``,
a ``Tracer.span`` method, or the planner's second, traced-only path —
the way ``tests/core/test_single_resolution.py`` fails on a second
resolution site.
"""

from __future__ import annotations

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(), filename=module)


def _defined(scope) -> set:
    return {
        node.name for node in scope.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _class(tree: ast.Module, name: str) -> ast.ClassDef:
    return next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == name
    )


def test_no_module_opens_or_closes_a_span_on_a_tracer_itself():
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module == "engine/trace.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=module)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("open", "close")
                and "tracer" in ast.unparse(node.func.value).lower()
            ):
                sites.append((module, node.lineno, ast.unparse(node.func)))
    assert sites == [], (
        "a span is opened or closed on a tracer outside engine/trace.py "
        f"— open it with `with op_span(...)` instead: {sites}"
    )


def test_op_span_is_a_plain_function():
    trace = _tree("engine/trace.py")
    (op_span,) = [
        node for node in trace.body
        if isinstance(node, ast.FunctionDef) and node.name == "op_span"
    ]
    assert op_span.decorator_list == []
    assert not any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        for node in ast.walk(op_span)
    )


def test_the_other_span_openers_stay_deleted():
    trace = _tree("engine/trace.py")
    assert "span" not in _defined(_class(trace, "Tracer"))
    assert not {"_run_traced", "open_root"} & _defined(_tree("core/planner.py"))
    assert "_note" not in _defined(_tree("engine/vector/kernels.py"))
