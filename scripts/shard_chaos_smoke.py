#!/usr/bin/env python
"""Kill-a-shard smoke: boot a 3-shard fleet, murder one, watch it heal.

CI's shard-chaos job runs this script.  It spawns three
``repro serve --shard i/3`` subprocesses wired to each other with the
fast failure-detection timings, then runs the
:func:`repro.chaos.shards.run_kill_shard_scenario` cycle:

0. CLI leg on the healthy fleet — ``repro call --shards`` with
   ``--batch 8`` (routed batch frames) and ``--batch 1`` exits 0 with
   eight attributed ``success`` rows;
1. healthy sweep — every scheme key returns its full target;
2. SIGKILL the busiest primary shard; survivors detect it dead;
3. outage sweep — the victim's keys come back *degraded* (short,
   non-empty, labelled) while every other key is untouched;
4. restart the shard with a new incarnation; it passes through
   quarantine and is re-admitted;
5. recovered sweep — full answers for every key again.

It then attacks the *multi-core* deployment the same way: a fresh
single-shard ``serve --workers 3`` fleet goes through
:func:`repro.chaos.shards.run_kill_worker_scenario` —

6. healthy sweep through the worker fleet, then a mutation on one
   connection proven visible on fresh connections (the single-writer
   delta fan-out, end to end);
7. SIGKILL a reader worker: lookups stay full throughout and the
   supervisor respawns it (watched via the pid manifest);
8. SIGKILL the writer worker: the whole ``serve`` process exits
   non-zero — a fleet that cannot apply mutations fails loud rather
   than serving quietly stale answers.

Finally it attacks *durability*: a fresh single-shard
``serve --workers 3 --store log`` fleet goes through
:func:`repro.chaos.shards.run_fleet_restart_scenario` —

9. a post-boot mutation lands and fans out, then the full-store reply
   of every (scheme, server) pair is captured as the uncrashed
   control;
10. the parent *and* every worker are SIGKILLed simultaneously —
    nothing survives but the append-log journal on disk;
11. the fleet restarts on the same data directory, reports
    ``storage.recovered``, and serves reply values identical to the
    control, mutation included.

Any invariant violation, unclean shard exit, or overall-deadline
overrun fails the script.  The report (and each shard's output) is
printed so a CI failure is diagnosable from the log alone.

Usage: ``PYTHONPATH=src python scripts/shard_chaos_smoke.py [--timeout 120]``
(the ``--timeout`` budget applies to each scenario separately).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
from typing import Callable, Optional

from repro.chaos.process import ServeError
from repro.chaos.shards import (
    ScenarioError,
    ShardFleet,
    run_fleet_restart_scenario,
    run_kill_shard_scenario,
    run_kill_worker_scenario,
)

SHARDS = 3
SERVERS = 12
ENTRIES = 30
SEED = 5
#: Per-key lookup target.  Chosen so every scheme can meet it when
#: healthy (fixed-x hosts x=10) while a lone backup replica
#: (``round(0.25 * 30) = 8`` entries) cannot — the outage sweep is
#: then *provably* degraded rather than accidentally full.
TARGET = 10


#: Worker processes in the kill-a-worker fleet: one writer plus two
#: readers, so killing a reader leaves a second one serving.
WORKERS = 3


def run_on(fleet: ShardFleet, label: str, scenario: Callable, timeout: float) -> Optional[dict]:
    """Start ``fleet``, run ``scenario(fleet)`` within ``timeout`` seconds,
    stop the fleet, and print and return the report.

    On a failure it prints why and every ``serve``'s output instead, and
    returns ``None``.
    """
    try:
        fleet.start()
        print(f"{label} up: {fleet.addresses}")
        report = asyncio.run(asyncio.wait_for(scenario(fleet), timeout=timeout))
    except (ScenarioError, ServeError, asyncio.TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        for name, serve in fleet.processes.items():
            state = "running" if serve.running else f"exited {serve.process.returncode}"
            print(f"--- {name} ({state}) ---\n{serve.output()}")
        return None
    finally:
        fleet.stop_all()
    print(json.dumps(report, indent=2, sort_keys=True))
    return report


def check_routed_call(fleet: ShardFleet, batch: int, timeout: float) -> None:
    """``repro call --shards`` against the healthy fleet, end to end."""
    shards = ",".join(
        f"{name}={host}:{port}" for name, (host, port) in sorted(fleet.addresses.items())
    )
    command = [
        sys.executable, "-m", "repro", "call", "round_robin",
        "--shards", shards, "--codec", "binary",
        "--count", "8", "--batch", str(batch), "--seed", "1",
    ]
    result = subprocess.run(command, capture_output=True, text=True, timeout=timeout)
    if result.returncode != 0:
        raise ScenarioError(
            f"repro call --shards --batch {batch} exited {result.returncode}:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    summary = json.loads(result.stdout)
    rows = summary["lookups"]
    attributed = [
        row for row in rows
        if row["success"] and row["home"] and row["routed"] and row["contacts"]
    ]
    if len(rows) != 8 or len(attributed) != 8 or summary["exit_code"] != 0:
        raise ScenarioError(
            f"repro call --shards --batch {batch}: want 8 attributed success "
            f"rows and exit_code 0, got:\n{result.stdout}"
        )
    print(f"repro call --shards --batch {batch}: 8 routed lookups ok")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    def kill_shard(fleet: ShardFleet):
        for batch in (8, 1):
            check_routed_call(fleet, batch, args.timeout)
        return run_kill_shard_scenario(fleet, target=TARGET)

    fleet = ShardFleet(shard_count=SHARDS, servers=SERVERS, entries=ENTRIES, seed=SEED)
    report = run_on(fleet, "fleet", kill_shard, args.timeout)
    if report is None:
        return 1
    print(
        f"shard chaos smoke passed: killed {report['victim']} "
        f"(primary for {', '.join(report['victim_keys'])}), lookups degraded "
        f"gracefully, fleet recovered after rejoin"
    )

    worker_fleet = ShardFleet(
        shard_count=1, servers=SERVERS, entries=ENTRIES, seed=SEED, workers=WORKERS
    )
    worker_report = run_on(
        worker_fleet,
        f"worker fleet ({WORKERS} workers)",
        lambda fleet: run_kill_worker_scenario(fleet, target=TARGET),
        args.timeout,
    )
    if worker_report is None:
        return 1
    respawn = worker_report["reader_respawn"]
    print(
        f"worker chaos smoke passed: mutation fanned out to every worker, "
        f"reader {respawn['index']} (pid {respawn['killed_pid']}) respawned "
        f"as pid {respawn['respawned_pid']} with lookups full throughout, "
        f"writer kill exited the fleet with code "
        f"{worker_report['writer_kill']['parent_exit']}"
    )

    durable_fleet = ShardFleet(
        shard_count=1, servers=SERVERS, entries=ENTRIES, seed=SEED, workers=WORKERS, store="log"
    )
    durable_report = run_on(
        durable_fleet,
        f"durable fleet ({WORKERS} workers, log store)",
        run_fleet_restart_scenario,
        args.timeout,
    )
    if durable_report is None:
        return 1
    print(
        f"fleet restart smoke passed: SIGKILLed the whole fleet "
        f"(parent + {len(durable_report['killed']['workers'])} workers), "
        f"restart replayed the journal "
        f"({durable_report['storage'].get('log_records')} records) and all "
        f"{durable_report['control_replies']} (scheme, server) replies came "
        f"back identical, mutation intact"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
