"""``python -m repro serve`` loads no experiment stack; ``run`` still does.

Each command runs in a fresh interpreter: this test process has long
since imported everything, so its ``sys.modules`` says nothing.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: The modules of :mod:`repro.experiments` the command line loads to
#: build its parser; every other one belongs to a command that runs it.
CLI_ENTRY_MODULES = {
    "repro.experiments",
    "repro.experiments.cli",
    "repro.experiments.profiles",
    "repro.experiments.registry",
}

#: Packages a ``serve`` process has no use for.
OFF_SERVE_PATH = (
    "repro.chaos",
    "repro.analysis",
    "repro.simulation",
    "repro.workload",
    "repro.maintenance",
    "repro.metrics",
    "repro.io",
)

#: Runs ``python -m repro`` with the given arguments, then prints its
#: exit code, its standard output and every module it loaded.
_PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
out, code = io.StringIO(), None
with contextlib.redirect_stdout(out):
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        code = done.code
print(json.dumps({"code": code, "out": out.getvalue(), "modules": sorted(sys.modules)}))
"""


def _python_m_repro(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def off_serve_path(modules):
    """The modules of ``modules`` a ``serve`` process should not load."""
    packages = ("repro.experiments", *OFF_SERVE_PATH)
    return sorted(
        name
        for name in modules
        if name not in CLI_ENTRY_MODULES
        and any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    )


class TestServeImportSet:
    def test_serve_loads_no_experiment_stack(self):
        probe = _python_m_repro("serve", "--help")
        assert probe["code"] == 0
        assert "--workers" in probe["out"]
        assert "repro.net.service" in probe["modules"]
        assert off_serve_path(probe["modules"]) == []

    def test_run_still_loads_and_runs_its_experiment(self):
        probe = _python_m_repro("run", "table1", "--profile", "smoke")
        assert probe["code"] == 0
        assert "Table 1: storage cost" in probe["out"]
        assert "repro.experiments.table1_storage" in probe["modules"]
