"""README.md and DESIGN.md cite the code by name; every citation must
still name something.

Two kinds of backticked reference are checked:

* a dotted ``repro.…`` name resolves: its longest importable prefix is
  imported and the rest is read off it with ``getattr``;
* a ``*.py`` path, optionally with a ``:N`` line number, names a file
  relative to the repo root, ``src/repro`` or ``tests`` (a bare file
  name: a file of that name anywhere under ``src/repro`` or
  ``tests``) that has at least N lines.

``benchmarks/layers/README.md`` is out of scope: it is the benchmark's
own document and changes only with the benchmark.  It still cites the
deleted ``scripts/bench_planner.py`` (ROADMAP item 1a).
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md")
BASES = (ROOT, ROOT / "src" / "repro", ROOT / "tests")

SPAN = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"\brepro(?:\.\w+)+")
PY_PATH = re.compile(r"[\w./-]*\w\.py(?::(\d+))?\b")


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
