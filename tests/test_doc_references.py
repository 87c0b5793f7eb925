"""README.md and DESIGN.md cite the code by name; every citation must
still name something.

Five kinds of backticked reference are checked:

* a dotted ``repro.…`` name resolves: its longest importable prefix is
  imported and the rest is read off it with ``getattr``;
* a ``*.py`` path, optionally with a ``:N`` line number, names a file
  relative to the repo root, ``src/repro`` or ``tests`` (a bare file
  name: a file of that name anywhere under ``src/repro`` or
  ``tests``) that has at least N lines;
* a strategy name is registered: a span that is a hyphenated name of a
  strategy family (``nested-…``, ``system-…``, ``count-…``, …, an
  argument list and a trailing ``*`` glob allowed), and every name
  after ``--strategy`` / ``--strategies`` or in ``strategy="…"``;
* a command-line flag exists: every ``--flag`` in a ``repro <cmd> …``
  or ``python -m repro <cmd> …`` span is an option of that
  subcommand's parser, and a span that starts with a bare ``--flag`` is
  an option of some subcommand or of a ``scripts/*.py`` parser;
* a benchmark metric name is declared: a span shaped like one is an
  ``end_to_end`` or ``per_layer`` name in ``BENCHMARK.json``.  Shaped
  like one means a dotted name under one of the file's layer prefixes
  whose last part ends in a unit (``engine.vector.join_ms``) or is the
  last part of a declared name (``engine.vector.rows_in``), or a name
  of the end-to-end kind (``latency_ms_p50``, ``cpu_ms_per_op``).

``benchmarks/layers/README.md`` is out of scope: it is the benchmark's
own document and changes only with the benchmark.  It still cites the
deleted ``scripts/bench_planner.py`` (ROADMAP item 1a).
"""

from __future__ import annotations

import fnmatch
import importlib
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")
BASES = (ROOT, ROOT / "src" / "repro", ROOT / "tests")

SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
PY_PATH = re.compile(r"[\w./-]*\w\.py(?::(\d+))?\b")
BARE_NAME = re.compile(r"([a-z][a-z0-9]*(?:-[a-z0-9]+)+\*?)(?:\(.*\))?")
STRATEGY_ARG = re.compile(
    r"--strateg(?:y|ies)[ =]([\w,-]+)|strategy=[\"']([\w-]+)[\"']"
)
COMMAND = re.compile(r"(?:^|\s)repro ([a-z]\w*)(.*)")
FLAG = re.compile(r"--[a-z][\w-]*")
END_TO_END_SHAPE = re.compile(
    r"(?:latency_ms|throughput|setup|peak_rss)_\w+|\w+_per_op"
)
UNIT_SUFFIX = re.compile(r".*_(?:ms|s|mb|kb|ratio|qps)(?:_\w+)?")


def spans(doc):
    return SPAN.findall((ROOT / doc).read_text())


def resolve(name):
    """The object a dotted ``repro.…`` name denotes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def candidates(ref):
    if "/" in ref:
        return [base / ref for base in BASES]
    return [p for base in BASES[1:] for p in base.rglob(ref)]


def line_count(path):
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


@pytest.mark.parametrize("doc", DOCS)
def test_every_dotted_name_resolves(doc):
    names = [n for span in spans(doc) for n in DOTTED.findall(span)]
    assert names, f"{doc} cites no repro.… name: is the pattern stale?"
    broken = []
    for name in names:
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{name}: {exc}")
    assert broken == [], f"{doc}: " + "; ".join(broken)


@pytest.mark.parametrize("doc", DOCS)
def test_every_python_path_exists(doc):
    refs = [m for span in spans(doc) for m in PY_PATH.finditer(span)]
    assert refs, f"{doc} cites no .py path: is the pattern stale?"
    broken = []
    for match in refs:
        path = match.group(0).split(":")[0]
        files = [p for p in candidates(path) if p.is_file()]
        if not files:
            broken.append(f"{match.group(0)}: no such file")
        elif match.group(1) and max(map(line_count, files)) < int(
            match.group(1)
        ):
            broken.append(f"{match.group(0)}: the file is shorter")
    assert broken == [], f"{doc}: " + "; ".join(broken)


def strategy_references(doc, families):
    """Every strategy name *doc* cites, globs included."""
    for span in spans(doc):
        bare = BARE_NAME.fullmatch(span)
        if bare and bare.group(1).split("-")[0] in families:
            yield bare.group(1)
        for match in STRATEGY_ARG.finditer(span):
            yield from (match.group(1) or match.group(2)).split(",")


@pytest.mark.parametrize("doc", DOCS)
def test_every_strategy_name_is_registered(doc):
    from repro.strategies import available_strategies

    registered = available_strategies()
    families = {name.split("-")[0] for name in registered if "-" in name}
    names = list(strategy_references(doc, families))
    assert names, f"{doc} cites no strategy: is the pattern stale?"
    broken = sorted(
        {n for n in names if not fnmatch.filter(registered, n)}
    )
    assert broken == [], f"{doc}: unregistered strategies {broken}"


def subcommand_options():
    """Subcommand name -> the option strings its parser accepts."""
    import argparse

    from repro.cli import build_parser

    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: set(parser._option_string_actions)
        for name, parser in sub.choices.items()
    }


@pytest.mark.parametrize("doc", DOCS)
def test_every_command_line_flag_exists(doc):
    options = subcommand_options()
    any_command = set().union(*options.values())
    scripts = "".join(
        p.read_text() for p in sorted((ROOT / "scripts").glob("*.py"))
    )
    checked, broken = 0, []
    for span in spans(doc):
        command = COMMAND.search(span)
        if command:
            name, rest = command.groups()
            if name not in options:
                broken.append(f"{span}: no subcommand {name!r}")
                continue
            for flag in FLAG.findall(rest):
                checked += 1
                if flag not in options[name]:
                    broken.append(f"{span}: repro {name} has no {flag}")
        elif span.startswith("--"):
            flag = FLAG.match(span).group(0)
            checked += 1
            if flag not in any_command and f'"{flag}"' not in scripts:
                broken.append(f"{span}: no subcommand or script has {flag}")
    assert checked, f"{doc} cites no command-line flag: is the pattern stale?"
    assert broken == [], f"{doc}: " + "; ".join(broken)


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [
        metric["name"]
        for group in ("end_to_end", "per_layer")
        for metric in spec[group]
    ]


def shaped_like_a_metric(declared):
    """Whether a span is shaped like a metric name (module docstring)."""
    layers, lasts = set(), set()
    for name in declared:
        layer, _, last = name.rpartition(".")
        if layer:
            layers.add(layer)
            lasts.add(last)

    def shaped(span):
        layer, _, last = span.rpartition(".")
        if layer in layers and re.fullmatch(r"[a-z]\w*", last):
            return last in lasts or bool(UNIT_SUFFIX.fullmatch(last))
        return bool(END_TO_END_SHAPE.fullmatch(span))

    return shaped


def test_every_declared_metric_is_shaped_like_one():
    declared = declared_metrics()
    assert all(map(shaped_like_a_metric(declared), declared))


@pytest.mark.parametrize("doc", DOCS)
def test_every_metric_name_is_a_benchmark_metric(doc):
    declared = declared_metrics()
    shaped = shaped_like_a_metric(declared)
    names = [span for span in spans(doc) if shaped(span)]
    assert names, f"{doc} cites no metric name: is the pattern stale?"
    broken = sorted(set(names) - set(declared))
    assert broken == [], f"{doc}: undeclared metric names {broken}"
