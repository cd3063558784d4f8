"""Smoke test for the service benchmark (not part of tier-1).

Run with ``python -m pytest bench/tests -q``; ``pyproject.toml`` pins
``testpaths`` to ``tests/`` so the default suite stays at ~30 s.
Boots real ``repro serve`` processes at 1/20 of the frozen op counts.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import layers  # noqa: E402
from layers import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT),
    )


def _leftovers() -> list:
    results = BENCH / "results"
    if not results.is_dir():
        return []
    return [p.name for p in results.iterdir() if p.is_dir()]


def test_contract_file_matches_the_tables():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract == layers.contract(contract["run_seconds"])
    assert max(m.bound for m in END_TO_END) == END_TO_END[0].bound  # setup_s
    frozen = json.loads((BENCH / "frozen.json").read_text())
    assert all(name in frozen for name in WORKLOAD_NAMES)


def test_smoke_all_workloads_end_to_end(tmp_path):
    out = tmp_path / "smoke.json"
    done = _run("--smoke", "--json", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    for workload in WORKLOAD_NAMES:
        for metric in END_TO_END:
            assert result["metrics"][f"{workload}.{metric.name}"]["value"] > 0
    reports = {r["workload"]: r for r in json.loads(out.read_text())["reports"]}
    assert reports["wire_sampled"]["live"]["cache"]["probes"] == 0
    assert reports["wire_cached"]["live"]["cache.hit_rate"] >= 0.99
    for report in reports.values():
        assert report["pinned"] == ((os.cpu_count() or 1) >= 2)
        assert report["teardown"]["surviving_pids"] == []
        assert report["teardown"]["work_dir_removed"] is True
        assert len(report["inputs_sha256"]) == 64
    assert _leftovers() == []


def test_smoke_trace_prints_every_layer_metric():
    done = _run("--smoke", "--workload", "wire_sampled", "--trace", "1")
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result["metrics"]) == sorted(layer.name for layer in PER_LAYER)
    on_path = ("codec.decode_request_us", "service.handle_batch_us_per_op",
               "protocol_server.answer_lookup_us", "core_storage.sample_us")
    for name in on_path:
        assert result["metrics"][name]["value"] > 0
    # Sampled answers never touch the reply cache.
    assert result["metrics"]["cache.get_hit_us"]["value"] == 0
    assert (BENCH / "results" / "trace-wire_sampled.jsonl").is_file()


def test_refuses_to_run_without_the_package(tmp_path):
    """In a tree holding only the benchmark, exit non-zero and print no result."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "bench" / "frozen.json").write_bytes((BENCH / "frozen.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wire_sampled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert compare.verdict(steady, steady, "lower", 0.10, False)[0] == "unchanged"
    slower = [value * 1.2 for value in steady]
    assert compare.verdict(steady, slower, "lower", 0.10, True)[0] == "regressed"
    assert compare.verdict(steady, slower, "higher", 0.10, True)[0] == "gain"
    faster = [value * 0.9 for value in steady]
    assert compare.verdict(steady, faster, "lower", 0.10, True)[0] == "gain"
    assert compare.verdict(steady, faster, "lower", 0.10, False)[0] == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.10, True)[0] == "unresolved"
