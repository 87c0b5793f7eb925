"""No module of ``src/repro`` imports a name it never uses.

No linter runs over this repository, so this AST scan is the lint: a
name an ``import`` binds must be read somewhere in its module — as a
name, or inside a string annotation — or be listed in the module's
``__all__`` (a deliberate re-export).  An import kept only for its side
effect (registering the strategies) says so with ``# noqa: F401`` on
its line.
"""

from __future__ import annotations

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent


def _annotation_names(tree: ast.Module):
    """Names read inside string annotations (``-> "Relation"``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    for name in ast.walk(ast.parse(sub.value, mode="eval")):
                        if isinstance(name, ast.Name):
                            yield name.id


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(source: str) -> list:
    """``(line, name)`` of every name *source* imports and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_annotation_names(tree)) | _exported(tree)
    return [(line, name) for line, name in bound if name not in used]


def test_the_scan_finds_what_it_should():
    source = (
        "from typing import List, Optional, Tuple\n"
        "import os.path\n"
        "from .x import kept, shown\n"
        "from .y import side  # noqa: F401\n"
        "__all__ = ['shown']\n"
        "def f(a: List[int]) -> 'Optional[int]':\n"
        "    return kept\n"
    )
    assert unused_imports(source) == [(1, "Tuple"), (2, "os")]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        unused = unused_imports(path.read_text())
        if unused:
            found[path.relative_to(PACKAGE).as_posix()] = unused
    assert found == {}, f"imported but never used: {found}"
