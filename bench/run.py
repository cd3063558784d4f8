#!/usr/bin/env python3
"""The service benchmark: boot real ``repro serve`` topologies, drive, verify, report.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace [0|1]] [--smoke] [--json OUT]

Without ``--workload`` all four run in turn.  ``--trace 0`` (default)
prints the five end-to-end metrics; ``--trace 1`` replays the
workload's first ops in-process with spans on, drives a shorter live
phase plus an open-loop phase, and prints the per-layer table.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the exit code is non-zero
when any check failed.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: ``--smoke``: every op count at this share of its frozen value.
SMOKE_SHARE = 1 / 20
#: The trace run's closed-loop phase, as a share of the untraced one.
TRACE_LIVE_SHARE = 0.4
#: The open-loop phase lasts a quarter of ``--seconds``, at most 5 s.
PACED_SECONDS_CAP = 5.0


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _checks(report: Dict[str, Any]) -> List[str]:
    """Workload invariants beyond per-op verification; returns failures."""
    failures = list(report.get("errors", []))
    if "end_to_end" not in report:
        return failures or ["the run produced no measurements"]
    if report["ops_failed"]:
        failures.append(f"{report['ops_failed']} of {report['ops_attempted']} ops failed")
    live = report["live"]
    name = report["workload"]
    if name == "wire_sampled" and live["cache"]["probes"]:
        failures.append(
            f"wire_sampled probed the reply cache {live['cache']['probes']:.0f} times "
            "(sampled answers must bypass it)"
        )
    if name == "wire_cached" and live["cache.hit_rate"] < 0.99:
        failures.append(f"wire_cached hit rate {live['cache.hit_rate']:.4f} < 0.99")
    if live.get("paced_ops_failed"):
        failures.append(f"{live['paced_ops_failed']:.0f} ops failed in the paced phase")
    for metric, value in report["end_to_end"].items():
        if not value > 0:
            failures.append(f"end-to-end metric {metric} is {value!r}")
    return failures


def _layer_values(report: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric by name; 0 where the layer is off this path.

    The replay's figure wins where both runs report one (only
    ``routed_json``, whose wire bytes the router hides from the loadgen).
    """
    from layers import PER_LAYER

    live = report.get("live", {})
    replay = report.get("replay", {}).get("metrics", {})
    values = {}
    for layer in PER_LAYER:
        value = replay.get(layer.name)
        if value is None:
            value = live.get(layer.name, 0.0)
        values[layer.name] = float(value)
    return values


def _print_report(report: Dict[str, Any], trace: bool) -> None:
    from layers import END_TO_END, PER_LAYER

    name = report["workload"]
    print(f"\n== {name} (seed {report['seed']}) ==")
    print(
        f"nproc {report['nproc']}  pinned {str(report['pinned']).lower()}  "
        f"loadavg {report['loadavg_before']:.2f} -> {report.get('loadavg_after', 0):.2f}  "
        f"inputs_sha256 {report.get('inputs_sha256', '')[:16]}"
    )
    if "end_to_end" in report:
        live = report["live"]
        print(
            f"ops_attempted {report['ops_attempted']}  ops_failed {report['ops_failed']}  "
            f"latency_samples {live['latency_samples']:.0f}  windows {live['windows']}  "
            f"measured {live['measured_wall_s']:.2f} s  "
            f"server_processes {live['server_processes']}"
        )
        if not trace:
            for metric in END_TO_END:
                value = report["end_to_end"][metric.name]
                print(f"  {metric.name:<34}{value:>14.4f} {metric.unit:<6}"
                      f"({metric.better} is better, bound {metric.bound:.0%})")
            for key in ("ops_per_s_median_window", "op_p50_ms_whole_phase",
                        "server_cpu_us_per_op_whole_phase",
                        "loadgen.op_p99_ms", "loadgen.op_p999_ms", "loadgen.cpu_share",
                        "loadgen.window_cv", "cache.hit_rate",
                        "codec.request_bytes_per_op", "codec.reply_bytes_per_op"):
                print(f"  {key:<34}{live[key]:>14.4f}")
        else:
            values = _layer_values(report)
            absent = report.get("replay", {}).get("absent", [])
            for layer in PER_LAYER:
                value = values[layer.name]
                note = "" if value else "  (off this workload's path)"
                print(f"  {layer.name:<38}{value:>14.4f} {layer.unit:<6}{note}")
            if absent:
                print(f"  absent probe targets: {', '.join(absent)}")
            replay = report.get("replay", {})
            if replay:
                print(f"  spans {replay['spans']} -> {replay['trace_file']}")
    teardown = report.get("teardown", {})
    print(
        f"teardown: surviving_pids {teardown.get('surviving_pids')}  "
        f"shm_segments_unlinked {teardown.get('shm_segments_unlinked')}  "
        f"work_dir_removed {teardown.get('work_dir_removed')}"
    )
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def _result_line(reports: List[Dict[str, Any]], trace: bool) -> Dict[str, Any]:
    """The contract's last line; metric names are prefixed only in a multi-run."""
    from layers import END_TO_END, PER_LAYER

    metrics: Dict[str, Dict[str, Any]] = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        if trace:
            values = _layer_values(report) if "live" in report else {}
            table = [(layer.name, layer.unit) for layer in PER_LAYER]
        else:
            values = report.get("end_to_end", {})
            table = [(metric.name, metric.unit) for metric in END_TO_END]
        for metric_name, unit in table:
            metrics[prefix + metric_name] = {
                "value": values.get(metric_name, 0.0), "unit": unit,
            }
    return {
        "correct": all(not report["failures"] for report in reports),
        "attempted": max(1, sum(report.get("ops_attempted", 0) for report in reports)),
        "failed": sum(report.get("ops_failed", 0) for report in reports),
        "metrics": metrics,
    }


def _replay(name: str, seed: int) -> Dict[str, Any]:
    """The in-process traced replay of ``name``'s first ops."""
    import harness
    import replay
    from workloads import WORKLOADS

    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="r", dir=harness.RESULTS))
    workload = WORKLOADS[name](seed, 0, 0.0)
    try:
        workload.build_pool()
        return replay.run_replay(
            workload, scratch, str(harness.RESULTS / f"trace-{name}.jsonl")
        )
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: List[str]) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every op count at 1/20: a quick end-to-end check")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write the full reports here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import live

    with open(BENCH / "frozen.json", encoding="utf-8") as handle:
        frozen = json.load(handle)
    trace = bool(args.trace)
    share = (SMOKE_SHARE if args.smoke else 1.0) * (TRACE_LIVE_SHARE if trace else 1.0)
    meta = {
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "smoke": args.smoke,
    }
    print(" ".join(f"{key}={value}" for key, value in meta.items()))

    # Pinned once: a second look at the affinity mask would see only
    # the loadgen's own core.
    placement = live.Placement()
    reports = []
    for name in [args.workload] if args.workload else names:
        budget = frozen[name]
        ops = max(1, int(budget["ops_per_second"] * args.seconds * share))
        paced = min(PACED_SECONDS_CAP, args.seconds / 4) * (SMOKE_SHARE * 4 if args.smoke else 1)
        report = live.run_live(
            placement, name, args.seed, ops, budget["paced_ops_per_s"],
            share=SMOKE_SHARE if args.smoke else 1.0,
            boots=1 if trace else live.BOOTS,
            paced_seconds=paced if trace else 0.0,
        )
        if trace and "end_to_end" in report:
            report["replay"] = _replay(name, args.seed)
        report["failures"] = _checks(report)
        _print_report(report, trace)
        reports.append(report)

    result = _result_line(reports, trace)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "result": result, "reports": reports},
                      handle, indent=1, default=str)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
