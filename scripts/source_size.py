#!/usr/bin/env python3
"""Lines of Python under ``src/repro`` per package, as a markdown table.

CI's ``Source size`` step appends this to ``$GITHUB_STEP_SUMMARY`` so
each ROADMAP anchor reads the size of ``src/`` off a run instead of
re-measuring it (ROADMAP aim 2: net-negative line counts are a goal).
The total equals ``find src -name '*.py' | xargs wc -l | tail -1``.
"""

from __future__ import annotations

import os
import sys

#: most specific first: a file counts for the first prefix it matches
PACKAGES = (
    "engine/vector", "core", "engine/operators", "engine", "sql", "serve",
    "baselines", "oracle", "fuzz",
)


def main(root: str = "src") -> int:
    lines = {package: 0 for package in PACKAGES + ("rest",)}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            inside = os.path.relpath(path, os.path.join(root, "repro"))
            package = next(
                (p for p in PACKAGES if inside.startswith(p + os.sep)), "rest"
            )
            with open(path, "rb") as handle:
                lines[package] += sum(1 for _ in handle)
    print("| package | lines |")
    print("|---|---:|")
    for package in sorted(PACKAGES) + ["rest"]:
        print(f"| `{package}` | {lines[package]} |")
    print(f"| **total** | **{sum(lines.values())}** |")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
