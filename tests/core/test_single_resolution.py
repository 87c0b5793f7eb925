"""An execution request becomes an instance in exactly one place.

:func:`repro.core.optimizer.resolve` is the only function that turns
``(strategy, backend)`` into a
strategy instance; ``execute``, ``trace`` and EXPLAIN read the decision
it returns.  This guard walks the AST of ``src/repro`` and fails as soon
as a second resolution site appears — a second ``choose`` call, a
registry instantiation on the execution path, a wider ``planner.run``
or a second caller of it, a second place that installs the execution
context — the way ``tests/engine/test_context.py`` fails on a second
ambient slot.
"""

from __future__ import annotations

import ast
import pathlib

import repro

PACKAGE = pathlib.Path(repro.__file__).parent

#: registry instantiations outside ``core/optimizer.py``, each with the
#: reason it is not a second resolution site
INSTANTIATION_EXEMPTIONS = {
    ("fuzz/runner.py", "check_case"):
        "asks the instance's applicable() guard to skip a refused "
        "(case, strategy) pair; the execution itself goes through the "
        "case's PreparedQuery by name",
    ("fuzz/corpus.py", "applicable_strategies"):
        "same guard probe, when freezing a failure into the corpus",
}

#: entry points this refactor deleted, and the per-strategy cost model
#: ``auto``'s rule replaced; they must not grow back
DELETED_NAMES = {
    "resolve_strategy", "run_traced", "build_plan", "_BACKEND_ALIASES",
    "CandidatePlan", "default_cost", "est_cost", "costed",
    "VECTOR_FACTOR", "VECTOR_SETUP", "PROBE_FACTOR", "DEFAULT_COST_FACTOR",
    "SPILL_IO_FACTOR", "KIND_PLANNER", "_emit_planner_span",
    "cost_nested_relational", "cost_nested_relational_sorted",
    "cost_optimized", "cost_bottomup", "cost_positive_rewrite",
    "cost_nested_iteration", "cost_system_a", "cost_unnesting",
    "cost_agg_rewrite", "cost_count_rewrite", "cost_boolean_aggregate",
    "cost_vectorized", "scan_work", "join_work", "nest_work",
    "semijoin_work", "bottomup_work", "iteration_work", "probe_work",
    "pipeline_work", "spill_io_work",
    "FeedbackStore", "plan_fingerprint", "block_overrides", "feedback_epoch",
    "set_table_stats", "clear_stat_overrides", "_OVERRIDES", "_apply_override",
}


def _modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield (
            path.relative_to(PACKAGE).as_posix(),
            ast.parse(path.read_text(), filename=str(path)),
        )


def _calls_by_function(tree: ast.AST):
    """``(enclosing function name, Call node)`` for every call in *tree*
    (``"<module>"`` for module-level code)."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inside = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = child.name
            if isinstance(child, ast.Call):
                yield owner, child
            yield from visit(child, inside)

    yield from visit(tree, "<module>")


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _registry_make_aliases(tree: ast.AST) -> set:
    """Bare names bound to ``repro.strategies.make`` in this module."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "strategies"
        for alias in node.names
        if alias.name == "make"
    }


def test_choose_is_called_from_resolve_only():
    sites = [
        (module, owner)
        for module, tree in _modules()
        for owner, call in _calls_by_function(tree)
        if _called_name(call) == "choose"
    ]
    assert sites == [("core/optimizer.py", "resolve")], (
        "optimizer.choose has a caller besides optimizer.resolve — route "
        f"the request through resolve() instead: {sites}"
    )


def test_strategies_are_instantiated_by_the_optimizer_only():
    sites = set()
    for module, tree in _modules():
        aliases = _registry_make_aliases(tree)
        for owner, call in _calls_by_function(tree):
            func = call.func
            if (isinstance(func, ast.Attribute) and func.attr == "make") or (
                isinstance(func, ast.Name) and func.id in aliases
            ):
                sites.add((module, owner))
    inside = {site for site in sites if site[0] == "core/optimizer.py"}
    assert inside == {
        ("core/optimizer.py", "choose"), ("core/optimizer.py", "resolve"),
    }
    # strategies.make itself is StrategyInfo.make behind a name lookup
    outside = sites - inside - {("strategies.py", "make")}
    assert outside == set(INSTANTIATION_EXEMPTIONS), (
        "a strategy is instantiated from the registry outside "
        "optimizer.resolve — resolve the request there, or list the site "
        f"with its reason: {sorted(outside ^ set(INSTANTIATION_EXEMPTIONS))}"
    )


def _function(module: str, name: str, cls: str = None) -> ast.FunctionDef:
    tree = ast.parse((PACKAGE / module).read_text())
    scope = tree
    if cls is not None:
        scope = next(
            node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls
        )
    return next(
        node for node in scope.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _parameters(func: ast.FunctionDef) -> list:
    args = func.args
    assert args.vararg is None and args.kwarg is None
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def test_planner_run_takes_query_db_and_a_decision():
    run = _function("core/planner.py", "run")
    assert _parameters(run) == ["query", "db", "decision"]


def _planner_run_aliases(tree: ast.AST) -> set:
    """Bare names bound to ``repro.core.planner.run`` in this module."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[-1] == "planner"
        for alias in node.names
        if alias.name == "run"
    }


def test_planner_run_is_called_from_the_session_only():
    sites = []
    for module, tree in _modules():
        aliases = _planner_run_aliases(tree)
        for owner, call in _calls_by_function(tree):
            func = call.func
            if (
                isinstance(func, ast.Attribute) and func.attr == "run"
                and isinstance(func.value, ast.Name)
                and func.value.id == "planner"
            ) or (isinstance(func, ast.Name) and func.id in aliases):
                sites.append((module, owner))
    assert sites == [("session.py", "_run")], (
        "planner.run has a caller besides PreparedQuery._run — execute "
        f"through a session's PreparedQuery instead: {sites}"
    )


def test_only_the_session_installs_the_execution_context_outside_the_engine():
    sites = {
        (module, owner)
        for module, tree in _modules()
        if not module.startswith("engine/")
        for owner, call in _calls_by_function(tree)
        if _called_name(call) in ("scope", "governed", "logic_mode")
    }
    assert sites == {("session.py", "_run")}, (
        "the execution context (governor, logic mode, caches) is "
        "installed outside PreparedQuery._run — execute through a "
        f"session instead: {sorted(sites)}"
    )


def test_session_governor_takes_the_layered_options():
    governor = _function("session.py", "governor", cls="Session")
    assert _parameters(governor) == ["self", "eff"]


def test_deleted_entry_points_stay_deleted():
    bound = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name.split(".")[-1], node.asname]
            else:
                continue
            bound.extend(
                (module, name) for name in names if name in DELETED_NAMES
            )
    assert bound == []
    registry = ast.parse((PACKAGE / "strategies.py").read_text())
    assert "resolve" not in {
        node.name for node in registry.body
        if isinstance(node, ast.FunctionDef)
    }
