"""Drive one workload against its real topology and take the measurements.

The same sequence serves every workload: timed boots, an untimed
warm-up, the op-count-bounded measured phase bracketed by ``/proc``
and wire-counter readings, and (in the trace run) an open-loop paced
phase.  End-to-end metrics never come from a run with spans on.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

import harness
import stats
from harness import BenchError, Placement, ServerGroup, Spawner, WorkDir
from wire import PhaseResult
from workloads import WORKLOADS, Workload

#: Boots timed per run; ``setup_s`` is their median.  The first four
#: are SIGKILLed after the probe, the fifth serves the run.
BOOTS = 5


def _cache_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    """Reply-cache counter movement across the measured phase."""
    b, a = before.get("cache") or {}, after.get("cache") or {}

    def moved(key: str) -> float:
        return float(a.get(key, 0) - b.get(key, 0))

    hits, misses = moved("hits"), moved("misses")
    return {
        "hits": hits,
        "misses": misses,
        "probes": hits + misses,
        "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "evictions": moved("evictions"),
        "invalidations": moved("invalidations"),
    }


def _paced_summary(phase: PhaseResult) -> Dict[str, float]:
    """Open-loop latency from each sample's *intended* send time."""
    latency = sorted(d - i for d, i in zip(phase.done, phase.intended))
    late = sorted(s - i for s, i in zip(phase.sent, phase.intended))
    return {
        "loadgen.paced_p50_ms": stats.percentile(latency, 50) * 1e3,
        "loadgen.paced_p99_ms": stats.percentile(latency, 99) * 1e3,
        "loadgen.paced_late_p99_ms": stats.percentile(late, 99) * 1e3,
        "paced_samples": float(len(latency)),
        "paced_ops_failed": float(phase.ops_failed),
    }


def run_live(
    placement: Placement,
    name: str,
    seed: int,
    ops: int,
    paced_ops_per_s: float,
    *,
    share: float = 1.0,
    boots: int = BOOTS,
    paced_seconds: float = 0.0,
    phase_timeout: float = 90.0,
) -> Dict[str, Any]:
    """One full live run of workload ``name``; returns the report dict.

    ``paced_seconds > 0`` marks the trace run: it also drives the
    open-loop phase and the workload's own wire probes.
    """
    work = WorkDir()
    spawner = Spawner(placement, work)
    workload: Workload = WORKLOADS[name](seed, ops, paced_ops_per_s, share)
    report: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "nproc": placement.nproc,
        "pinned": placement.pinned,
        "loadavg_before": harness.loadavg(),
        "work_dir_inside_checkout": work.inside_checkout,
        "errors": [],
    }
    group: Optional[ServerGroup] = None
    try:
        workload.prepare(spawner)
        report["inputs_sha256"] = workload.inputs_sha256

        setup: List[float] = []
        for boot in range(boots):
            workload.before_boot(spawner)
            started = time.perf_counter()
            group, addresses = spawner.boot(workload.commands())
            workload.attach(addresses)
            setup.append(time.perf_counter() - started)
            if boot < boots - 1:
                workload.detach()
                group.kill()
        report["setup_samples_s"] = setup

        warm = workload.warm_up()
        if warm.ops_failed:
            report["errors"].append(
                f"warm-up failed {warm.ops_failed} ops: {warm.error}"
            )

        pids = group.pids()
        counters_before = workload.server_counters()
        bytes_before = workload.wire_bytes()
        cpu_samples = [(time.perf_counter(), harness.cpu_seconds(pids))]

        def sample_server_cpu() -> None:
            cpu_samples.append((time.perf_counter(), harness.cpu_seconds(pids)))

        own_cpu_before = time.process_time()
        phase = workload.measure(phase_timeout, sample_server_cpu)
        own_cpu = time.process_time() - own_cpu_before
        sample_server_cpu()
        server_cpu = cpu_samples[-1][1] - cpu_samples[0][1]
        rss_mb = harness.peak_rss_mb(pids)
        bytes_after = workload.wire_bytes()
        counters_after = workload.server_counters()
        if sorted(group.pids()) != sorted(pids):
            report["errors"].append("a server process died or respawned mid-phase")
        if phase.error:
            report["errors"].append(f"measured phase: {phase.error}")

        completed = len(phase.done) * workload.ops_per_sample
        wall = phase.ended - phase.started
        latency = stats.latency_summary(
            [d - s for d, s in zip(phase.done, phase.sent)]
        )
        windows = stats.window_rates(phase.done, phase.started, workload.ops_per_sample)
        window_p50 = stats.window_medians(phase.sent, phase.done, phase.started)
        cpu_costs = stats.interval_costs(cpu_samples, phase.done, workload.ops_per_sample)
        if not windows and wall:
            # A phase under one second (--smoke) has no complete window.
            windows = [completed / wall]
            window_p50 = [latency["p50_s"]]
        if not cpu_costs and completed:
            cpu_costs = [server_cpu / completed]
        report["ops_attempted"] = phase.ops_attempted
        report["ops_failed"] = phase.ops_failed
        report["end_to_end"] = {
            "setup_s": stats.median(setup),
            # The undisturbed quartile: this VM's noise is one-sided
            # (slow episodes of ten seconds and more), so the quartile
            # of the one-second windows on the good side repeats where
            # a figure over the whole phase does not.
            "ops_per_s": stats.quartiles(windows)[2],
            "op_p50_ms": stats.quartiles(window_p50)[0] * 1e3,
            "server_cpu_us_per_op": stats.quartiles(cpu_costs)[0] * 1e6,
            "server_rss_mb": rss_mb,
        }
        cache = _cache_delta(counters_before, counters_after)
        storage_before = counters_before.get("storage") or {}
        storage_after = counters_after.get("storage") or {}
        report["live"] = {
            "measured_wall_s": wall,
            "windows": len(windows),
            "ops_per_s_median_window": stats.median(windows),
            "op_p50_ms_whole_phase": latency["p50_ms"],
            "server_cpu_us_per_op_whole_phase": (
                server_cpu / completed * 1e6 if completed else 0.0
            ),
            "latency_samples": latency["samples"],
            "server_processes": len(pids),
            "loadgen.op_p99_ms": latency["p99_ms"],
            "loadgen.op_p999_ms": latency["p999_ms"],
            "loadgen.cpu_share": own_cpu / wall if wall else 0.0,
            "loadgen.window_cv": stats.coefficient_of_variation(windows),
            "client.cpu_us_per_op": own_cpu / completed * 1e6 if completed else 0.0,
            "codec.request_bytes_per_op": (
                (bytes_after[0] - bytes_before[0]) / completed if completed else 0.0
            ),
            "codec.reply_bytes_per_op": (
                (bytes_after[1] - bytes_before[1]) / completed if completed else 0.0
            ),
            "cache": cache,
            "cache.hit_rate": cache["hit_rate"],
            "cache.evictions": cache["evictions"],
            "cache.invalidations_per_write": (
                cache["invalidations"] / (completed * workload.write_share)
                if completed and workload.write_share else 0.0
            ),
            "appendlog.compactions": float(
                storage_after.get("compactions", 0) - storage_before.get("compactions", 0)
            ),
        }
        live = report["live"]
        live.update(workload.own_figures())

        if paced_seconds > 0:
            live.update(_paced_summary(workload.paced(paced_seconds, phase_timeout)))
            live.update(workload.extra_metrics())
    except (BenchError, OSError) as exc:
        report["errors"].append(f"{type(exc).__name__}: {exc}")
        if group is not None:
            report["errors"].append(group.log_tail())
    finally:
        try:
            workload.detach()
        except (OSError, RuntimeError):
            pass
        workload.close()
        if group is not None:
            group.stop()
        teardown = spawner.close()
        report["teardown"] = teardown
        if teardown["surviving_pids"]:
            report["errors"].append(
                f"serve processes survived teardown: {teardown['surviving_pids']}"
            )
        if not teardown["work_dir_removed"]:
            report["errors"].append("the work dir could not be removed")
        report["loadavg_after"] = harness.loadavg()
    return report
