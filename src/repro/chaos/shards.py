"""Kill-a-shard chaos: a real fleet, a real SIGKILL, a real rejoin.

The in-process chaos harness (:mod:`repro.chaos.harness`) attacks one
placement with simulated faults; this module attacks the *deployment*:
it boots N ``repro serve --shard i/N`` subprocesses, drives routed
lookups through a :class:`~repro.net.router.ShardRouter`, SIGKILLs one
shard mid-traffic, and asserts the failover contract end to end:

1. **During the outage** every lookup whose primary died comes back
   *degraded* — short but non-empty and correctly labelled — never an
   exception, never a hang (all contacts are timeout-bounded), and
   never wrong (entries always come from the placed universe).
2. Keys whose primary survived are **unaffected**: full answers,
   before, during, and after.
3. After the shard restarts (higher incarnation), the failure
   detectors move it dead → quarantined → alive, and once re-admitted
   the fleet serves **full answers for every key** again.

Everything observable is returned in a report dict so the CI smoke
(``scripts/shard_chaos_smoke.py``) can both assert and archive it.
Ports are pre-allocated in the parent so every shard can be told its
peers' addresses at boot; the window between probing and binding is
the usual ephemeral-port race, acceptable for a test harness.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import random
import signal
import socket
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chaos.process import ServeProcess
from repro.cluster.messages import AddRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.client import AsyncLookupClient
from repro.net.codec import decode_value, encode_message, read_frame, write_frame
from repro.net.router import ShardRouter
from repro.net.sharding import ShardMap

#: Fast failure-detection timings for the scenario (seconds).  Small
#: enough that the whole kill/detect/rejoin cycle fits in a CI smoke,
#: large enough to be robust on a loaded runner.
FAST_TIMINGS = {
    "heartbeat_interval": 0.1,
    "suspect_after": 0.6,
    "dead_after": 1.2,
    "quarantine": 0.8,
}


class ScenarioError(AssertionError):
    """A kill-a-shard invariant was violated."""


def free_ports(count: int) -> List[int]:
    """Reserve ``count`` distinct ephemeral ports, then release them."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


@dataclass
class ShardFleet:
    """N ``repro serve`` shard subprocesses with a shared peer map.

    Parameters mirror the service defaults; ``timings`` feeds the
    failure-detection flags.  The fleet object is synchronous (plain
    subprocess management); only the router traffic is async.
    """

    shard_count: int = 3
    servers: int = 12
    entries: int = 30
    seed: int = 5
    replicas: int = 2
    backup_fraction: float = 0.25
    timings: Dict[str, float] = field(default_factory=lambda: dict(FAST_TIMINGS))
    host: str = "127.0.0.1"
    #: Worker processes per shard (``serve --workers N``).  The CLI
    #: rejects ``--workers`` + ``--peers``, so a multi-worker fleet is
    #: only valid with ``shard_count == 1`` (one fleet, no membership
    #: plane) — that is the shape ``run_kill_worker_scenario`` attacks.
    workers: int = 1
    #: Storage backend (``serve --store``): ``"memory"`` (default) or
    #: ``"log"``.  With ``"log"`` each shard gets a stable per-name
    #: data directory under the fleet tmpdir, so a restarted shard
    #: replays its own journal — the surface
    #: ``run_fleet_restart_scenario`` attacks.
    store: str = "memory"
    #: Override for the journal root; ``None`` uses the fleet tmpdir.
    data_dir: Optional[str] = None

    def __post_init__(self) -> None:
        ports = free_ports(self.shard_count)
        self.addresses: Dict[str, Tuple[str, int]] = {
            f"s{i}": (self.host, ports[i]) for i in range(self.shard_count)
        }
        self.processes: Dict[str, ServeProcess] = {}
        self.incarnations: Dict[str, int] = {
            name: 1 for name in self.addresses
        }
        self._tmpdir = tempfile.TemporaryDirectory(prefix="shard-fleet-")

    # -- process management --------------------------------------------------

    def shard_data_dir(self, name: str) -> str:
        """Stable journal directory for shard ``name`` (survives restarts)."""
        root = self.data_dir or self._tmpdir.name
        path = os.path.join(root, f"{name}-data")
        os.makedirs(path, exist_ok=True)
        return path

    def _peer_flag(self, name: str) -> str:
        return ",".join(
            f"{peer}={host}:{port}"
            for peer, (host, port) in sorted(self.addresses.items())
            if peer != name
        )

    def _argv(self, name: str) -> List[str]:
        """Shard ``name``'s ``serve`` arguments at its current incarnation."""
        host, port = self.addresses[name]
        args = [
            "--host", host,
            "--port", str(port),
            "--servers", str(self.servers),
            "--entries", str(self.entries),
            "--seed", str(self.seed),
            "--shard", f"{name[1:]}/{self.shard_count}",
            "--replicas", str(self.replicas),
            "--backup-fraction", str(self.backup_fraction),
        ]
        if self.workers > 1:
            args += ["--workers", str(self.workers)]
        if self.store != "memory":
            args += ["--store", self.store, "--data-dir", self.shard_data_dir(name)]
        if self.shard_count > 1:
            # The membership plane is one process per shard; a worker
            # fleet (workers > 1) runs without it (the CLI enforces
            # the combination is rejected).
            args += [
                "--peers", self._peer_flag(name),
                "--incarnation", str(self.incarnations[name]),
                "--heartbeat-interval", str(self.timings["heartbeat_interval"]),
                "--suspect-after", str(self.timings["suspect_after"]),
                "--dead-after", str(self.timings["dead_after"]),
                "--quarantine", str(self.timings["quarantine"]),
            ]
        return args

    def start(self) -> None:
        for name in sorted(self.addresses):
            self.processes[name] = ServeProcess(self._argv(name))
            self.processes[name].start()

    def restart(self, name: str) -> None:
        """Boot a fresh incarnation of a killed shard on the same port."""
        self.incarnations[name] += 1
        serve = self.processes[name]
        serve.args = self._argv(name)
        serve.restart()

    def stop_all(self) -> None:
        try:
            for serve in self.processes.values():
                serve.stop()
        finally:
            for serve in self.processes.values():
                serve.close()
            self._tmpdir.cleanup()


# --------------------------------------------------------------------------
# The scenario
# --------------------------------------------------------------------------


async def _sweep(
    router: ShardRouter, keys: List[str], target: int
) -> Dict[str, Dict[str, object]]:
    """One routed lookup per key, as report rows."""
    rows: Dict[str, Dict[str, object]] = {}
    for key in keys:
        routed = await router.lookup(key, target)
        rows[key] = {
            "found": len(routed.entries),
            "target": target,
            "success": routed.success,
            "degraded": routed.degraded,
            "home": list(routed.home),
            "routed": list(routed.routed),
            "failover": routed.failover,
            "entries": sorted(e.entry_id for e in routed.entries),
        }
    return rows


async def _await_state(
    router: ShardRouter, shard: str, want: str, deadline: float
) -> None:
    while time.monotonic() < deadline:
        view = await router.membership_view(refresh=True)
        if view.get(shard) == want:
            return
        await asyncio.sleep(0.05)
    raise ScenarioError(f"shard {shard} never reached state {want!r}")


def _check_universe(rows: Dict[str, Dict[str, object]], entries: int) -> None:
    universe = {f"v{i}" for i in range(1, entries + 1)}
    for key, row in rows.items():
        ids = row["entries"]
        if len(ids) != len(set(ids)):
            raise ScenarioError(f"{key}: duplicate entries in one answer: {ids}")
        stray = set(ids) - universe
        if stray:
            raise ScenarioError(f"{key}: entries outside the universe: {stray}")


async def run_kill_shard_scenario(
    fleet: ShardFleet,
    *,
    target: int = 10,
    victim: Optional[str] = None,
    rng_seed: int = 11,
) -> Dict[str, object]:
    """Drive the kill → degrade → rejoin → recover cycle; returns a report.

    Raises :class:`ScenarioError` on any invariant violation.  The
    fleet must already be started; it is not stopped here (callers own
    teardown, so a failing scenario can still archive process output).
    """
    from repro.net.service import DEFAULT_SCHEMES

    keys = sorted(DEFAULT_SCHEMES)
    shard_map = ShardMap(list(fleet.addresses))
    primaries = {
        key: shard_map.home(key, fleet.replicas)[0] for key in keys
    }
    if victim is None:
        # Pick the shard that is primary for the most keys: maximal
        # blast radius makes the degraded assertions meaningful.
        by_load = sorted(
            fleet.addresses,
            key=lambda s: -sum(1 for p in primaries.values() if p == s),
        )
        victim = by_load[0]
    victim_keys = sorted(k for k, p in primaries.items() if p == victim)
    spared_keys = sorted(k for k, p in primaries.items() if p != victim)
    if not victim_keys or not spared_keys:
        raise ScenarioError(
            f"victim {victim} must be primary for some but not all keys "
            f"(primaries: {primaries})"
        )

    router = ShardRouter(
        fleet.addresses,
        replicas=fleet.replicas,
        rng=random.Random(rng_seed),
        timeout=2.0,
        view_ttl=0.2,
    )
    report: Dict[str, object] = {
        "victim": victim,
        "victim_keys": victim_keys,
        "spared_keys": spared_keys,
        "primaries": primaries,
    }
    try:
        detect_budget = (
            fleet.timings["dead_after"] + 10 * fleet.timings["heartbeat_interval"]
        )

        # Phase 1: healthy fleet, every key meets its target.
        await _await_state(
            router, victim, "alive", time.monotonic() + detect_budget + 10
        )
        healthy = await _sweep(router, keys, target)
        report["healthy"] = healthy
        _check_universe(healthy, fleet.entries)
        for key, row in healthy.items():
            if not row["success"]:
                raise ScenarioError(f"healthy fleet missed target for {key}: {row}")

        # Phase 2: SIGKILL the victim — no goodbye, exactly what a
        # failure detector is for; survivors must condemn it.
        fleet.processes[victim].kill()
        await _await_state(
            router, victim, "dead", time.monotonic() + detect_budget + 10
        )

        # Phase 3: outage traffic — degraded for the victim's keys,
        # full answers for everyone else's, zero errors or hangs.
        outage = await _sweep(router, keys, target)
        report["outage"] = outage
        _check_universe(outage, fleet.entries)
        for key in victim_keys:
            row = outage[key]
            if row["success"]:
                raise ScenarioError(
                    f"{key}: primary {victim} is dead but the lookup was full: {row}"
                )
            if not row["degraded"] or row["found"] == 0:
                raise ScenarioError(
                    f"{key}: outage lookup must be degraded-but-non-empty: {row}"
                )
            if victim in row["routed"]:
                raise ScenarioError(
                    f"{key}: router sent traffic to the dead shard: {row}"
                )
        for key in spared_keys:
            row = outage[key]
            if not row["success"]:
                raise ScenarioError(
                    f"{key}: primary {primaries[key]} survived but the "
                    f"lookup was short: {row}"
                )

        # Phase 4: restart (new incarnation) → quarantine → alive.
        fleet.restart(victim)
        rejoin_budget = detect_budget + fleet.timings["quarantine"] + 10
        await _await_state(
            router, victim, "alive", time.monotonic() + rejoin_budget
        )

        # Phase 5: recovered fleet serves full answers again.
        recovered = await _sweep(router, keys, target)
        report["recovered"] = recovered
        _check_universe(recovered, fleet.entries)
        for key, row in recovered.items():
            if not row["success"]:
                raise ScenarioError(
                    f"{key}: fleet recovered but the lookup is still short: {row}"
                )
    finally:
        await router.close()
    return report


# --------------------------------------------------------------------------
# Kill-a-worker: attack the multi-core fleet instead of the shard plane
# --------------------------------------------------------------------------


async def _worker_sweep(
    host: str,
    port: int,
    keys: List[str],
    target: int,
    *,
    rng_seed: int,
    attempts: int = 4,
) -> Dict[str, Dict[str, object]]:
    """One lookup per key, each on a *fresh* connection.

    Fresh connections matter: SO_REUSEPORT distributes connections
    across workers, so a sweep exercises more than one process.  A
    connection refused/reset during a kill window is retried (the
    kernel stops routing to a dead worker as soon as its listening
    socket closes); a *reply* that is short is never retried — that
    would hide a correctness bug behind the chaos.
    """
    rows: Dict[str, Dict[str, object]] = {}
    for attempt_key in keys:
        last: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                async with AsyncLookupClient(
                    host, port, rng=random.Random(rng_seed), timeout=5.0
                ) as client:
                    result = await client.lookup(attempt_key, target)
                break
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                last = exc
                await asyncio.sleep(0.25)
        else:
            raise ScenarioError(
                f"{attempt_key}: fleet unreachable after {attempts} attempts: {last}"
            )
        rows[attempt_key] = {
            "found": len(result.entries),
            "target": target,
            "success": result.success,
            "degraded": result.degraded,
            "entries": sorted(e.entry_id for e in result.entries),
        }
    return rows


async def _raw_send(
    host: str, port: int, server: int, key: str, message: object
) -> Dict[str, object]:
    """One ``send`` envelope on a throwaway JSON connection."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(
            writer,
            {
                "op": "send",
                "server": server,
                "key": key,
                "message": encode_message(message),
            },
        )
        reply = await asyncio.wait_for(read_frame(reader), 5.0)
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    if not (isinstance(reply, dict) and reply.get("ok")):
        raise ScenarioError(f"send({key}, server {server}) failed: {reply!r}")
    return reply


async def _entry_visible(
    host: str, port: int, entry_id: str, *, key: str, server: int
) -> bool:
    reply = await _raw_send(host, port, server, key, LookupRequest(0))
    entries = decode_value(reply["value"])
    return entry_id in {entry.entry_id for entry in entries}


async def _await_entry_everywhere(
    host: str,
    port: int,
    entry_id: str,
    *,
    key: str,
    server: int,
    connections: int,
    deadline: float,
) -> int:
    """Wait until ``connections`` fresh connections in a row all see the entry.

    Each probe connection may land on any worker, so a full round of
    unanimous sightings is strong evidence the writer's delta reached
    every reader — and a single miss restarts the round (a reader may
    lag by one delta in flight, never serve a *stale cached* answer).
    """
    probes = 0
    while time.monotonic() < deadline:
        seen = 0
        for _ in range(connections):
            probes += 1
            if not await _entry_visible(
                host, port, entry_id, key=key, server=server
            ):
                break
            seen += 1
        if seen == connections:
            return probes
        await asyncio.sleep(0.1)
    raise ScenarioError(
        f"entry {entry_id!r} never became visible on {connections} "
        f"consecutive fresh connections"
    )


async def _hot_probe(
    host: str, port: int, key: str
) -> Tuple[int, Dict[str, object]]:
    """One fresh connection: a cacheable hot lookup, then an info probe.

    Returns ``(worker index, cache capabilities)`` for whichever fleet
    worker the connection landed on — the lookup goes first, so the
    returned counters include it.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(
            writer,
            {
                "op": "send",
                "server": 0,
                "key": key,
                "message": encode_message(LookupRequest(0)),
            },
        )
        reply = await asyncio.wait_for(read_frame(reader), 5.0)
        if not (isinstance(reply, dict) and reply.get("ok")):
            raise ScenarioError(f"hot-key probe lookup failed: {reply!r}")
        await write_frame(writer, {"op": "info"})
        info = await asyncio.wait_for(read_frame(reader), 5.0)
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    caps = (info.get("value") or {}).get("capabilities") or {}
    index = (caps.get("workers") or {}).get("index")
    if not isinstance(index, int):
        raise ScenarioError(f"info probe reported no worker index: {caps}")
    return index, dict(caps.get("cache") or {})


async def _warm_hot_key(
    host: str, port: int, workers: int, key: str, deadline: float
) -> Dict[str, int]:
    """Probe fresh connections until every worker served the hot key twice.

    Twice per worker guarantees every process holds a *current-stamped*
    cache row (first contact fills, second hits) — in particular the
    writer, whose hot set is what a respawned reader will be handed.
    """
    served: Dict[str, int] = {str(index): 0 for index in range(workers)}
    while time.monotonic() < deadline:
        if all(count >= 2 for count in served.values()):
            return served
        index, _cache = await _hot_probe(host, port, key)
        served[str(index)] = served.get(str(index), 0) + 1
    raise ScenarioError(f"could not warm every worker's hot key: {served}")


async def _assert_warm_respawn(
    host: str, port: int, index: int, key: str, deadline: float
) -> Dict[str, object]:
    """The respawned reader's first hot lookup must be a warm hit."""
    while time.monotonic() < deadline:
        answered, cache = await _hot_probe(host, port, key)
        if answered != index:
            continue
        if not cache.get("hits"):
            raise ScenarioError(
                f"respawned worker {index} answered the previously-hot "
                f"key cold: {cache}"
            )
        return {
            "index": index,
            "hits": cache.get("hits"),
            "misses": cache.get("misses"),
            "hit_rate": cache.get("hit_rate"),
        }
    raise ScenarioError(
        f"fresh connections never reached respawned worker {index}"
    )


async def run_kill_worker_scenario(
    fleet: ShardFleet,
    *,
    target: int = 10,
    rng_seed: int = 17,
    probe_connections: int = 6,
) -> Dict[str, object]:
    """Kill a reader worker (fleet survives), then the writer (fails loud).

    The fleet must be a single-shard ``workers >= 2`` deployment,
    already started.  Phases:

    1. healthy sweep — every scheme key meets its target through the
       worker fleet;
    2. a mutation sent over one connection becomes visible on fresh
       connections (i.e. on *other* workers: the single-writer delta
       fan-out works end to end);
    3. SIGKILL a reader worker — the fleet keeps answering in full and
       the supervisor respawns the reader (observed via the pid
       manifest);
    4. SIGKILL worker 0 (the writer) — the supervisor refuses to limp
       along without a mutation path and the whole ``serve`` process
       exits non-zero (fail loud, never fail stale).

    Returns a report dict; raises :class:`ScenarioError` on any
    violation.  After this scenario the fleet process has exited — the
    caller's ``stop_all`` becomes a no-op cleanup.
    """
    from repro.net.service import DEFAULT_SCHEMES

    if fleet.shard_count != 1 or fleet.workers < 2:
        raise ScenarioError(
            "run_kill_worker_scenario wants shard_count=1 and workers>=2, "
            f"got {fleet.shard_count}/{fleet.workers}"
        )
    (name,) = fleet.addresses
    host, port = fleet.addresses[name]
    serve = fleet.processes[name]
    keys = sorted(DEFAULT_SCHEMES)
    manifest = serve.workers()
    if sorted(manifest) != list(range(fleet.workers)):
        raise ScenarioError(f"unexpected worker manifest: {manifest}")
    report: Dict[str, object] = {"workers": dict(manifest)}

    # Phase 1: healthy sweep through the fleet.
    healthy = await _worker_sweep(host, port, keys, target, rng_seed=rng_seed)
    report["healthy"] = healthy
    for key, row in healthy.items():
        if not row["success"]:
            raise ScenarioError(f"healthy fleet missed target for {key}: {row}")

    # Phase 2: a mutation fans out to every worker.  ``w1`` is outside
    # the seeded v1..vN universe, so a sighting can only come from the
    # mutation itself.
    mutation_key = "full_replication"
    await _raw_send(host, port, 0, mutation_key, AddRequest(Entry("w1")))
    probes = await _await_entry_everywhere(
        host,
        port,
        "w1",
        key=mutation_key,
        server=0,
        connections=probe_connections,
        deadline=time.monotonic() + 15,
    )
    report["mutation"] = {"entry": "w1", "key": mutation_key, "probes": probes}

    # Warm the post-mutation hot key on *every* worker before the kill:
    # the writer's hot set (shipped to the respawn over the writer bus)
    # must hold a current-stamped row for the warm-handoff check below.
    report["warm"] = await _warm_hot_key(
        host, port, fleet.workers, mutation_key, time.monotonic() + 15
    )

    # Phase 3: SIGKILL the highest-index reader; the fleet keeps
    # answering and the supervisor brings a replacement up.
    reader_index = max(manifest)
    reader_pid = manifest[reader_index]
    os.kill(reader_pid, signal.SIGKILL)
    during = await _worker_sweep(host, port, keys, target, rng_seed=rng_seed + 1)
    report["during_reader_kill"] = during
    for key, row in during.items():
        if not row["success"]:
            raise ScenarioError(
                f"{key}: lookup went short while a reader was down: {row}"
            )
    respawned_pid = serve.await_respawn(reader_index, reader_pid, timeout=20)
    report["reader_respawn"] = {
        "index": reader_index,
        "killed_pid": reader_pid,
        "respawned_pid": respawned_pid,
    }
    # The replacement must answer the previously-hot key warm — the
    # writer handed it the hot set during the bus sync, before it
    # accepted its first connection.
    report["warm_respawn"] = await _assert_warm_respawn(
        host, port, reader_index, mutation_key, time.monotonic() + 20
    )
    recovered = await _worker_sweep(host, port, keys, target, rng_seed=rng_seed + 2)
    report["after_respawn"] = recovered
    for key, row in recovered.items():
        if not row["success"]:
            raise ScenarioError(f"{key}: short lookup after reader respawn: {row}")

    # Phase 4: SIGKILL the writer; the whole fleet must fail loud.
    writer_pid = serve.workers()[0]
    os.kill(writer_pid, signal.SIGKILL)
    try:
        returncode = serve.process.wait(timeout=20)
    except subprocess.TimeoutExpired:
        raise ScenarioError(
            "fleet parent kept running after the writer worker died"
        ) from None
    if returncode == 0:
        raise ScenarioError(
            "fleet parent exited 0 after losing the writer — a mutation "
            "blackout must be loud"
        )
    report["writer_kill"] = {"pid": writer_pid, "parent_exit": returncode}
    return report


# --------------------------------------------------------------------------
# Kill-the-whole-fleet: durability, not availability
# --------------------------------------------------------------------------


async def _info_caps(host: str, port: int) -> Dict[str, object]:
    """One ``info`` probe on a throwaway connection; returns capabilities."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, {"op": "info"})
        info = await asyncio.wait_for(read_frame(reader), 5.0)
    finally:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()
    return dict((info.get("value") or {}).get("capabilities") or {})


async def _full_store_replies(
    fleet: ShardFleet, host: str, port: int, keys: List[str]
) -> Dict[str, List[object]]:
    """The raw wire value of every (key, server) full-store lookup.

    ``LookupRequest(target=0)`` returns the contacted server's whole
    ordered entry list without consuming RNG, so the reply value is a
    pure function of durable state — the right thing to demand
    byte-for-byte equality on across a crash/recover cycle.
    """
    replies: Dict[str, List[object]] = {}
    for key in keys:
        replies[key] = [
            (await _raw_send(host, port, server, key, LookupRequest(0)))["value"]
            for server in range(fleet.servers)
        ]
    return replies


async def run_fleet_restart_scenario(
    fleet: ShardFleet,
    *,
    rng_seed: int = 23,
    probe_connections: int = 4,
) -> Dict[str, object]:
    """SIGKILL the *entire* fleet mid-workload, restart it, verify recovery.

    The kill-a-shard and kill-a-worker scenarios attack availability —
    some process always survives to answer.  This scenario attacks
    durability: with ``--store log`` nothing survives the kill except
    the append-log journal on disk, so a correct restart must rebuild
    every server's ordered entry list and coverage bitmask from replay
    alone.  The fleet must be a single-shard ``store == "log"``
    deployment, already started.  Phases:

    1. healthy sweep — every scheme key meets its target;
    2. a mutation (``w1``, outside the seeded universe) lands and fans
       out to every worker, so the journal holds post-boot writes;
    3. capture the full-store reply value of every (scheme, server)
       pair — the uncrashed control;
    4. SIGKILL the parent *and* every worker simultaneously (no
       goodbye, no flush window beyond the per-record flush);
    5. restart on the same data directory; the service must report
       ``storage.recovered`` and serve reply values identical to the
       control, with the mutation intact.

    Returns a report dict; raises :class:`ScenarioError` on violation.
    """
    from repro.net.service import DEFAULT_SCHEMES

    if fleet.shard_count != 1 or fleet.store != "log":
        raise ScenarioError(
            "run_fleet_restart_scenario wants shard_count=1 and store='log', "
            f"got {fleet.shard_count}/{fleet.store!r}"
        )
    (name,) = fleet.addresses
    host, port = fleet.addresses[name]
    keys = sorted(DEFAULT_SCHEMES)
    report: Dict[str, object] = {"workers": fleet.workers, "store": fleet.store}

    # Phase 1: healthy sweep.
    healthy = await _worker_sweep(host, port, keys, 10, rng_seed=rng_seed)
    report["healthy"] = healthy
    for key, row in healthy.items():
        if not row["success"]:
            raise ScenarioError(f"healthy fleet missed target for {key}: {row}")

    # Phase 2: a post-boot mutation the journal must not lose.
    mutation_key = "full_replication"
    await _raw_send(host, port, 0, mutation_key, AddRequest(Entry("w1")))
    if fleet.workers > 1:
        await _await_entry_everywhere(
            host,
            port,
            "w1",
            key=mutation_key,
            server=0,
            connections=probe_connections,
            deadline=time.monotonic() + 15,
        )

    # Phase 3: the uncrashed control — every (scheme, server) reply.
    control = await _full_store_replies(fleet, host, port, keys)
    report["control_replies"] = sum(len(v) for v in control.values())

    # Phase 4: SIGKILL the parent and every worker at once (one
    # ``killpg``), so no supervisor is left to respawn or fail loud.
    serve = fleet.processes[name]
    worker_pids = serve.workers()
    serve.kill_group()
    report["killed"] = {"parent": serve.pid, "workers": worker_pids}

    # Phase 5: restart on the same data directory and verify recovery.
    fleet.restart(name)
    caps = await _info_caps(host, port)
    storage = dict(caps.get("storage") or {})
    report["storage"] = storage
    if storage.get("kind") != "log" or not storage.get("recovered"):
        raise ScenarioError(
            f"restarted fleet did not recover from its journal: {storage}"
        )
    recovered = await _full_store_replies(fleet, host, port, keys)
    for key in keys:
        if recovered[key] != control[key]:
            raise ScenarioError(
                f"{key}: post-restart replies differ from the uncrashed control"
            )
    survivor = decode_value(
        (await _raw_send(host, port, 0, mutation_key, LookupRequest(0)))["value"]
    )
    if "w1" not in {entry.entry_id for entry in survivor}:
        raise ScenarioError("mutation w1 did not survive the fleet restart")
    after = await _worker_sweep(host, port, keys, 10, rng_seed=rng_seed + 1)
    report["after_restart"] = after
    for key, row in after.items():
        if not row["success"]:
            raise ScenarioError(f"{key}: short lookup after fleet restart: {row}")
    report["recovered_replies"] = report["control_replies"]
    return report


__all__ = [
    "FAST_TIMINGS",
    "ScenarioError",
    "ShardFleet",
    "free_ports",
    "run_fleet_restart_scenario",
    "run_kill_shard_scenario",
    "run_kill_worker_scenario",
]
