"""Every ``repro`` name the service benchmark resolves at run time exists.

``bench/`` reaches the package's internals by name (``"pkg.mod:Class.attr"``
strings resolved when a traced run starts) and uses a few attributes of
live services directly.  A rename would otherwise only show up as an
absent probe target and an emptied layer table in a benchmark run.
"""

import importlib
import pathlib
import re

import pytest

from repro.net.service import LookupService, ServiceConfig

BENCH = pathlib.Path(__file__).resolve().parents[2] / "bench"

#: Targets the benchmark still names though the code is gone on purpose
#: (the shared reply cache tier was retired; its layer rows stay empty).
KNOWN_DEAD = {
    "repro.net.cache:SharedReplyCache",
    "repro.net.cache:SharedReplyCache.get",
    "repro.net.cache:SharedReplyCache.put",
}

#: Attributes ``bench/replay.py`` reads off a live ``LookupService``.
SERVICE_ATTRIBUTES = ("set_shared_epoch", "recovered_epoch", "journal", "compact_journal")


def _targets():
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        found.update(re.findall(r"\"(repro\.[\w.]+:[\w.]+)\"", path.read_text()))
    return sorted(found)


def _resolves(target):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return False
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    return True


def test_the_benchmark_names_targets():
    targets = _targets()
    assert len(targets) >= 30
    assert KNOWN_DEAD <= set(targets)


@pytest.mark.parametrize("target", _targets())
def test_bench_target_resolves(target):
    assert _resolves(target) is (target not in KNOWN_DEAD)


@pytest.mark.parametrize("name", SERVICE_ATTRIBUTES)
def test_service_attribute_used_by_the_replay_exists(name, tmp_path):
    service = LookupService(
        ServiceConfig(server_count=4, entry_count=8, store="log", data_dir=str(tmp_path))
    )
    try:
        assert hasattr(service, name)
        assert name in (BENCH / "replay.py").read_text()
    finally:
        service.journal.close()
