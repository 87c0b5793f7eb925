"""A span opens in exactly one way: through ``engine.trace.op_span``.

Operators, phases, the baselines' filter phases and the root
``execute`` and ``governor`` spans all open through ``op_span``, which
marks a span aborted when its block raises and closes it through
``Tracer.close``.  This guard walks the AST of ``src/repro`` and fails
as soon as a second way grows back — a hand-paired ``tracer.open`` /
``tracer.close`` outside ``engine/trace.py``, a generator ``op_span``
or a ``@contextmanager`` in the core or the engines that wraps it, a
``Tracer.span`` method, or the planner's second, traced-only path —
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


def _is_contextmanager(decorator) -> bool:
    name = decorator.attr if isinstance(decorator, ast.Attribute) else (
        getattr(decorator, "id", None)
    )
    return name in ("contextmanager", "asynccontextmanager")


def test_no_generator_manager_wraps_op_span():
    """A ``@contextmanager`` around ``op_span`` costs a generator frame
    per span even with tracing off; the core and the engines call
    ``op_span`` themselves."""
    sites = []
    for package in ("core", "engine"):
        for path in sorted((PACKAGE / package).rglob("*.py")):
            module = path.relative_to(PACKAGE).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), filename=module)):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) or not any(map(_is_contextmanager, node.decorator_list)):
                    continue
                if any(
                    isinstance(call, ast.Call)
                    and ast.unparse(call.func).split(".")[-1] == "op_span"
                    for call in ast.walk(node)
                ):
                    sites.append((module, node.name))
    assert sites == [], f"generator managers opening a span: {sites}"


def test_the_other_span_openers_stay_deleted():
    trace = _tree("engine/trace.py")
    assert "span" not in _defined(_class(trace, "Tracer"))
    assert not {"_run_traced", "open_root"} & _defined(_tree("core/planner.py"))
    assert "_note" not in _defined(_tree("engine/vector/kernels.py"))
