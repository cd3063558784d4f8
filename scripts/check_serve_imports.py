#!/usr/bin/env python
"""Serve-path import check: ``python -X importtime -m repro serve --help``.

Runs the command, prints its cumulative import time (all modules, and
the ``repro`` ones), and exits 1 if it imported a module a ``serve``
process has no use for — an experiment, the chaos harness, the
analysis or simulation stack.  The rule is ``off_serve_path`` in
``tests/experiments/test_cli_imports.py``, which tier-1 asserts too.

Usage: ``PYTHONPATH=src python scripts/check_serve_imports.py``
"""

from __future__ import annotations

import os
import pathlib
import runpy
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMAND = ["-X", "importtime", "-m", "repro", "serve", "--help"]


def main() -> int:
    rule = runpy.run_path(str(ROOT / "tests" / "experiments" / "test_cli_imports.py"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *COMMAND], capture_output=True, text=True, env=env, timeout=120
    )
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return 1
    modules = set()
    total_us = repro_us = 0
    # "import time: <self us> | <cumulative us> | <two spaces per level><name>"
    for line in done.stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        cumulative, name = int(fields[1]), fields[2][1:]
        modules.add(name.strip())
        if not name.startswith(" "):  # top level: counted once
            total_us += cumulative
            if name == "repro" or name.startswith("repro."):
                repro_us += cumulative
    repro_count = sum(name.split(".")[0] == "repro" for name in modules)
    print(
        f"python {' '.join(COMMAND)}: {len(modules)} modules, "
        f"{total_us / 1e3:.1f} ms cumulative; {repro_count} repro modules, "
        f"{repro_us / 1e3:.1f} ms"
    )
    off = rule["off_serve_path"](modules)
    for name in off:
        print(f"off the serve path: {name}", file=sys.stderr)
    return 1 if off else 0


if __name__ == "__main__":
    sys.exit(main())
