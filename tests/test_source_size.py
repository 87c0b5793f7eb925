"""``scripts/source_size.py`` (CI's ``Source size`` step): the per-package
rows add up to the total, and the total is every line of Python under
``src/``."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_table_adds_up_to_every_line_under_src():
    out = subprocess.run(
        [sys.executable, os.path.join("scripts", "source_size.py")],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    rows = {}
    for line in out.splitlines()[2:]:
        _, name, count, _ = (cell.strip(" *`") for cell in line.split("|"))
        rows[name] = int(count)
    total = rows.pop("total")
    assert {"core", "engine", "engine/operators", "engine/vector", "sql",
            "serve", "baselines", "oracle", "fuzz", "rest"} == set(rows)
    assert sum(rows.values()) == total
    counted = 0
    for directory, _dirs, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    counted += sum(1 for _ in handle)
    assert total == counted
