"""The execution context is the package's only ambient slot.

The guard half fails as soon as a ``threading.local`` or a second
``ContextVar`` appears anywhere under ``src/repro`` — every piece of
per-execution state must be a field of
:class:`repro.engine.context.ExecutionContext`, so that one ``scope``
installs all of it.  The unit half pins ``scope`` itself.
"""

from __future__ import annotations

import ast
import pathlib
import re
import threading

import pytest

import repro
from repro.engine.context import ExecutionContext, current, scope
from repro.engine.metrics import collect, current_metrics
from repro.engine.trace import tracing

PACKAGE = pathlib.Path(repro.__file__).parent
CONTEXT_MODULE = PACKAGE / "engine" / "context.py"

#: constructors of ambient storage, by defining module
SLOT_FACTORIES = {"threading": "local", "contextvars": "ContextVar"}


def _slot_constructions(path: pathlib.Path) -> list:
    """Line numbers of ``threading.local(...)`` / ``ContextVar(...)``
    calls in *path*, however the constructor was imported."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = set()  # bare names bound to a slot constructor
    modules = {}  # local module alias -> real module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in SLOT_FACTORIES:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in SLOT_FACTORIES:
            for alias in node.names:
                if alias.name == SLOT_FACTORIES[node.module]:
                    aliases.add(alias.asname or alias.name)
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in aliases:
            hits.append(node.lineno)
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and SLOT_FACTORIES.get(modules.get(func.value.id)) == func.attr
        ):
            hits.append(node.lineno)
    return hits


class TestOneAmbientSlot:
    def test_no_slot_outside_the_context_module(self):
        offenders = {
            str(path.relative_to(PACKAGE)): lines
            for path in sorted(PACKAGE.rglob("*.py"))
            if path != CONTEXT_MODULE
            for lines in [_slot_constructions(path)]
            if lines
        }
        assert offenders == {}, (
            "ambient state outside engine/context.py — make it a field of "
            f"ExecutionContext instead: {offenders}"
        )

    def test_context_module_defines_exactly_one(self):
        assert len(_slot_constructions(CONTEXT_MODULE)) == 1

    def test_acceptance_grep_prints_one_line(self):
        """``grep -rn "threading.local(\\|ContextVar(" src/repro``."""
        pattern = re.compile(r"threading\.local\(|ContextVar\(")
        lines = [
            f"{path.relative_to(PACKAGE)}:{number}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
        ]
        assert len(lines) == 1 and lines[0].startswith("engine/context.py:")


class TestScopeAndFork:
    def test_root_context_is_empty(self):
        assert current() == ExecutionContext(
            metrics=None, tracer=None, governor=None, logic="3vl",
            reduce_cache=None, spill_depth=0,
        )

    def test_scope_replaces_fields_and_restores_on_error(self):
        before = current()
        with pytest.raises(RuntimeError):
            with scope(logic="2vl", spill_depth=2) as inner:
                assert current() is inner
                assert (inner.logic, inner.spill_depth) == ("2vl", 2)
                assert inner.governor is before.governor
                raise RuntimeError("unwind")
        assert current() is before

    def test_scope_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            with scope(deadline=1):
                pass

    def test_a_new_thread_starts_from_the_root_context(self):
        seen = []
        with scope(logic="2vl"), collect(), tracing():
            thread = threading.Thread(target=lambda: seen.append(current()))
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert seen == [ExecutionContext()]

    def test_default_metrics_bundle_outside_any_scope(self):
        default = current_metrics()
        with collect() as inner:
            assert current_metrics() is inner
        assert current_metrics() is default
