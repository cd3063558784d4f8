"""The four workloads: topology, seeded traffic, and reply verification.

Each workload owns three things and nothing else: the ``serve``
command lines of its topology, the request pool it derives from the
seed (pre-encoded through the public wire API), and the check applied
to every reply.  Driving, timing and /proc accounting live in
``live.py`` and are identical for all four.

Only the public wire surface of ``repro`` is imported here
(``repro.net.codec``'s envelope functions, ``repro.cluster.messages``,
``repro.core.entry.Entry``, ``repro.net.router.ShardRouter``), so a
later change may delete internals without breaking the benchmark.
"""

from __future__ import annotations

import asyncio
import hashlib
import pathlib
import random
import shutil
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.codec import decode_frame_body, encode_envelope_as, encode_message
from repro.net.client import AsyncLookupClient
from repro.net.router import ShardRouter

from harness import BenchError, Spawner, free_port
from wire import PhaseResult, WireConn, find_role, run_paced, run_windowed

SCHEMES = ("full_replication", "fixed", "random_server", "round_robin", "hash")
SERVERS = 16
#: The servers' cluster seed is part of the topology, not of the
#: traffic: ``--seed`` varies what is asked, never what is stored.
CLUSTER_SEED = 0

#: Every 64th reply is decoded to its entries and checked in depth.
DEEP_EVERY = 64
#: The warm-up slice: this share of the pool, sent untimed.
WARMUP_SHARE = 0.02


def _send(request_id: int, server: int, key: str, message: Any) -> Dict[str, Any]:
    # Key order matches what the typed client emits, so the server's
    # decoder sees the frame shape real clients send.
    return {
        "op": "send",
        "id": request_id,
        "server": server,
        "key": key,
        "message": encode_message(message),
    }


def _batch(frame_id: int, subs: List[Dict[str, Any]]) -> bytes:
    return encode_envelope_as(
        {"op": "batch", "id": frame_id, "requests": subs}, "binary"
    )


def _entry_ids(value: Any) -> List[str]:
    return [entry.entry_id for entry in value]


class Workload:
    """What ``live.py`` needs from a workload."""

    name = ""
    #: Ops carried by one latency sample (a frame, or one ``lookup()``).
    ops_per_sample = 1
    #: Frames (or callers) kept in flight during the measured phase.
    window = 1
    #: Share of the ops that mutate.
    write_share = 0.0

    def __init__(self, seed: int, ops: int, paced_ops_per_s: float,
                 share: float = 1.0) -> None:
        self.seed = seed
        #: Ops of the measured phase (already scaled by ``share``).
        self.ops = ops
        self.paced_ops_per_s = paced_ops_per_s
        #: 1.0, or the smoke share applied to every other op count too.
        self.share = share
        self.inputs_sha256 = ""

    # -- set-up --------------------------------------------------------------

    def build_pool(self) -> None:
        """Derive the request pool from the seed; sets ``inputs_sha256``."""
        raise NotImplementedError

    def prepare(self, spawner: Spawner) -> None:
        """Everything untimed a run needs before its first boot."""
        self.build_pool()

    def before_boot(self, spawner: Spawner) -> None:
        """Untimed work a boot needs (the durable data dir copy)."""

    def commands(self) -> List[List[str]]:
        raise NotImplementedError

    def attach(self, addresses: List[Tuple[str, int]]) -> None:
        """Connect, negotiate and run one verified probe (timed as set-up)."""
        raise NotImplementedError

    def detach(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what outlives the connections (an event loop)."""

    # -- phases --------------------------------------------------------------

    def warm_up(self) -> PhaseResult:
        raise NotImplementedError

    def measure(self, timeout: float, every_second: Callable[[], None]) -> PhaseResult:
        """The measured phase; calls ``every_second`` about once a second."""
        raise NotImplementedError

    def paced(self, seconds: float, timeout: float) -> PhaseResult:
        raise NotImplementedError

    def server_counters(self) -> Dict[str, Any]:
        """Live counters read over the wire (cache, storage); may be empty."""
        return {}

    def wire_bytes(self) -> Tuple[int, int]:
        """``(sent, received)`` so far on the measured connection(s)."""
        return 0, 0

    def own_figures(self) -> Dict[str, Any]:
        """What only this workload can report about its measured phase."""
        return {}

    def extra_metrics(self) -> Dict[str, float]:
        """Per-layer figures from extra live traffic of its own (trace run)."""
        return {}


# --------------------------------------------------------------------------
# Binary, batched, one connection: the two wire workloads and the fleet
# --------------------------------------------------------------------------


class _WireWorkload(Workload):
    """A pool of pre-encoded ``batch`` frames cycled on one connection."""

    pool_frames = 2048
    entries = 320
    warmup_share = WARMUP_SHARE
    #: Whether the verifier needs every (scheme, server) store's entry ids.
    needs_stores = False

    def __init__(self, seed: int, ops: int, paced_ops_per_s: float,
                 share: float = 1.0) -> None:
        super().__init__(seed, ops, paced_ops_per_s, share)
        self.pool: List[bytes] = []
        self.conn: Optional[WireConn] = None
        self.stores: Dict[Tuple[str, int], Set[str]] = {}
        self._cursor = 0

    def _digest_pool(self, *extra: bytes) -> None:
        digest = hashlib.sha256()
        for frame in self.pool:
            digest.update(frame)
        for blob in extra:
            digest.update(blob)
        self.inputs_sha256 = digest.hexdigest()

    def commands(self) -> List[List[str]]:
        return [[
            "--port", "0", "--servers", str(SERVERS),
            "--entries", str(self.entries), "--seed", str(CLUSTER_SEED),
        ]]

    def attach(self, addresses: List[Tuple[str, int]]) -> None:
        self.conn = WireConn(*addresses[0])
        self.conn.hello()
        self._probe(self.conn)

    def detach(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def _probe(self, conn: WireConn) -> None:
        """One single-frame lookup, checked: the boot serves real answers."""
        reply = conn.call(_send(0, 0, "full_replication", LookupRequest(8)))
        ids = _entry_ids(reply["value"]) if reply.get("ok") else []
        if len(set(ids)) != 8:
            raise BenchError(f"probe lookup failed: {reply!r}")

    def _order(self, frames: int) -> List[int]:
        """The next ``frames`` pool indices, continuing where the last phase stopped."""
        size = len(self.pool)
        order = [(self._cursor + i) % size for i in range(frames)]
        self._cursor = (self._cursor + frames) % size
        return order

    def verify(self, pool_index: int, body: bytes, sequence: int) -> int:
        raise NotImplementedError

    def _sub_replies(self, pool_index: int, body: bytes) -> Optional[List[Dict[str, Any]]]:
        """The frame's sub-replies, or None unless it is the ok answer to this frame."""
        reply = decode_frame_body(body)
        subs = reply.get("value")
        if (
            not reply.get("ok")
            or reply.get("id") != pool_index
            or not isinstance(subs, list)
            or len(subs) != self.ops_per_sample
        ):
            return None
        return subs

    @staticmethod
    def _flag_failures(subs: List[Dict[str, Any]]) -> int:
        """Sub-replies that are not ``ok`` or echo the wrong id."""
        return sum(
            1 for j, sub in enumerate(subs) if not sub.get("ok") or sub.get("id") != j
        )

    def warm_up(self) -> PhaseResult:
        if self.needs_stores:
            # Fetched after set-up is timed: 80 full-store reads are the
            # verifier's oracle, not part of what a client pays to connect.
            self.stores = self._fetch_stores()
        frames = max(self.window, int(len(self.pool) * self.warmup_share))
        return run_windowed(
            self.conn, self.pool, self._order(frames), self.window,
            self.ops_per_sample, self.verify, timeout=60.0,
        )

    def measure(self, timeout: float, every_second: Callable[[], None]) -> PhaseResult:
        return run_windowed(
            self.conn, self.pool, self._order(max(1, self.ops // self.ops_per_sample)), self.window,
            self.ops_per_sample, self.verify, timeout=timeout, every_second=every_second,
        )

    def paced(self, seconds: float, timeout: float) -> PhaseResult:
        frames_per_s = self.paced_ops_per_s / self.ops_per_sample
        frames = max(1, int(frames_per_s * seconds))
        return run_paced(
            self.conn, self.pool, self._order(frames), frames_per_s,
            self.ops_per_sample, self.verify, timeout=timeout,
        )

    def server_counters(self) -> Dict[str, Any]:
        return self.conn.capabilities()

    def wire_bytes(self) -> Tuple[int, int]:
        return self.conn.bytes_out, self.conn.bytes_in

    def _fetch_stores(self) -> Dict[Tuple[str, int], Set[str]]:
        """Every (scheme, server) store's entry ids: the deep checks' oracle."""
        stores = {}
        for scheme in SCHEMES:
            for server in range(SERVERS):
                reply = self.conn.call(_send(0, server, scheme, LookupRequest(0)))
                if not reply.get("ok"):
                    raise BenchError(f"store fetch failed: {reply!r}")
                stores[(scheme, server)] = set(_entry_ids(reply["value"]))
        return stores


class WireSampled(_WireWorkload):
    name = "wire_sampled"
    ops_per_sample = 16
    window = 4
    target = 8
    needs_stores = True

    def build_pool(self) -> None:
        rng = random.Random(f"wire_sampled|{self.seed}")
        self.meta: List[List[Tuple[str, int]]] = []
        for frame_id in range(self.pool_frames):
            picks = [
                (rng.choice(SCHEMES), rng.randrange(SERVERS))
                for _ in range(self.ops_per_sample)
            ]
            self.meta.append(picks)
            self.pool.append(_batch(frame_id, [
                _send(j, server, scheme, LookupRequest(self.target))
                for j, (scheme, server) in enumerate(picks)
            ]))
        self._digest_pool()

    def verify(self, pool_index: int, body: bytes, sequence: int) -> int:
        subs = self._sub_replies(pool_index, body)
        if subs is None:
            return self.ops_per_sample
        failed = 0
        deep = sequence % DEEP_EVERY == 0
        picks = self.meta[pool_index]
        for j, sub in enumerate(subs):
            if not sub.get("ok") or sub.get("id") != j:
                failed += 1
            elif deep:
                ids = _entry_ids(sub["value"])
                if (
                    len(ids) != self.target
                    or len(set(ids)) != self.target
                    or not self.stores[picks[j]].issuperset(ids)
                ):
                    failed += 1
        return failed


class WireCached(_WireWorkload):
    name = "wire_cached"
    ops_per_sample = 16
    window = 4
    #: ``0`` = the whole store; ``400`` exceeds every store, so both
    #: shapes are answered without drawing randomness and are cacheable.
    targets = (0, 400)
    #: One whole pass: each pool frame's first reply is decoded and
    #: checked in full and kept as the reference the measured phase
    #: compares bytes against, which must not cost measured time.
    warmup_share = 1.0
    needs_stores = True

    def build_pool(self) -> None:
        rng = random.Random(f"wire_cached|{self.seed}")
        keys = [
            (scheme, server, target)
            for scheme in SCHEMES
            for server in range(SERVERS)
            for target in self.targets
        ]
        rng.shuffle(keys)
        weights = [1.0 / rank for rank in range(1, len(keys) + 1)]  # Zipf(1.0)
        self.meta: List[List[Tuple[str, int, int]]] = []
        for frame_id in range(self.pool_frames):
            picks = rng.choices(keys, weights=weights, k=self.ops_per_sample)
            self.meta.append(picks)
            self.pool.append(_batch(frame_id, [
                _send(j, server, scheme, LookupRequest(target))
                for j, (scheme, server, target) in enumerate(picks)
            ]))
        self._digest_pool()
        self.first_reply: List[Optional[bytes]] = [None] * self.pool_frames

    def verify(self, pool_index: int, body: bytes, sequence: int) -> int:
        first = self.first_reply[pool_index]
        if first is not None:
            # A cached answer is a pure function of the request: the
            # same pool frame must be answered with the same bytes.
            return 0 if body == first else self.ops_per_sample
        subs = self._sub_replies(pool_index, body)
        if subs is None:
            return self.ops_per_sample
        failed = 0
        for j, (sub, (scheme, server, _t)) in enumerate(zip(subs, self.meta[pool_index])):
            if not sub.get("ok") or sub.get("id") != j:
                failed += 1
                continue
            ids = _entry_ids(sub["value"])
            if len(ids) != len(set(ids)) or set(ids) != self.stores[(scheme, server)]:
                failed += 1
        if not failed:
            self.first_reply[pool_index] = body
        return failed


class DurableFleetRW(_WireWorkload):
    name = "durable_fleet_rw"
    ops_per_sample = 8
    window = 2
    write_share = 0.5
    entries = 2000
    pool_frames = 640
    #: Mutation frames applied before the crash every boot recovers from.
    prefix_frames = 400
    #: Dense ids above the placed universe, so full-store replies stay
    #: on the dense-entries encoding real ``v<i>`` catalogues use.
    cycle_ids = 64

    def __init__(self, seed: int, ops: int, paced_ops_per_s: float,
                 share: float = 1.0) -> None:
        super().__init__(seed, ops, paced_ops_per_s, share)
        self.data_dir: Optional[pathlib.Path] = None
        self.pre_crash: Optional[pathlib.Path] = None
        self.probe_frames: List[bytes] = []
        self.pre_crash_ids: List[List[str]] = []
        #: The first recovery boot's raw probe replies; later boots must match.
        self.recovered_replies: Optional[List[bytes]] = None
        self.writer_conn: Optional[WireConn] = None

    def _cycle(self, base_id: int, server: int, scheme: str, entry: Entry,
               keep: bool = False) -> List[Dict[str, Any]]:
        second = LookupRequest(0) if keep else DeleteRequest(entry)
        return [
            _send(base_id, server, scheme, AddRequest(entry)),
            _send(base_id + 1, server, scheme, LookupRequest(0)),
            _send(base_id + 2, server, scheme, second),
            _send(base_id + 3, server, scheme, LookupRequest(0)),
        ]

    def _frames(self, rng: random.Random, count: int, first_entry: int,
                keep_every: int = 0) -> Tuple[List[bytes], List[List[Tuple[str, str]]]]:
        frames, meta = [], []
        cycle = 0
        for frame_id in range(count):
            subs: List[Dict[str, Any]] = []
            picks = []
            for half in range(2):
                scheme = SCHEMES[cycle % len(SCHEMES)]
                entry_id = f"v{first_entry + cycle % self.cycle_ids}"
                keep = bool(keep_every) and cycle % keep_every == keep_every - 1
                if keep:
                    # Left in place, so the recovered state differs
                    # from a fresh placement; never reused afterwards.
                    entry_id = f"v{first_entry + self.cycle_ids + cycle}"
                subs += self._cycle(
                    half * 4, rng.randrange(SERVERS), scheme, Entry(entry_id), keep
                )
                picks.append((scheme, entry_id))
                cycle += 1
            frames.append(_batch(frame_id, subs))
            meta.append(picks)
        return frames, meta

    def commands(self) -> List[List[str]]:
        return [[
            "--port", "0", "--servers", str(SERVERS),
            "--entries", str(self.entries), "--seed", str(CLUSTER_SEED),
            "--workers", "2", "--store", "log", "--data-dir", str(self.data_dir),
        ]]

    def build_pool(self) -> None:
        rng = random.Random(f"durable_fleet_rw|{self.seed}")
        first = self.entries + 1
        self.prefix, _ = self._frames(
            rng, max(8, int(self.prefix_frames * self.share)),
            first + 10 * self.cycle_ids, keep_every=8,
        )
        self.pool, self.meta = self._frames(rng, self.pool_frames, first)
        self.probe_frames = [
            encode_envelope_as(_send(0, server, scheme, LookupRequest(0)), "binary")
            for scheme in SCHEMES
            for server in range(0, SERVERS, 4)
        ]

    def prepare(self, spawner: Spawner) -> None:
        self.build_pool()
        # Generation: a fresh fleet journals the prefix, answers the
        # probe set, and is SIGKILLed with no shutdown path run.
        self.pre_crash = spawner.work.sub("pre-crash")
        self.data_dir = self.pre_crash
        group, addresses = spawner.boot(self.commands())
        conn = find_role(*addresses[0], role="reader")
        try:
            result = run_windowed(
                conn, self.prefix, list(range(len(self.prefix))), 1, self.ops_per_sample,
                self._verify_ok_flags, timeout=120.0,
            )
            if result.ops_failed:
                raise BenchError(
                    f"generation prefix failed {result.ops_failed} ops: {result.error}"
                )
            self.pre_crash_ids = [self._probe_ids(body) for body in self._probe_set(conn)]
        finally:
            conn.close()
            group.kill()
        digest = hashlib.sha256()
        for path in sorted(self.pre_crash.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        self.data_dir_sha256 = digest.hexdigest()
        self._digest_pool(
            *self.prefix, repr(self.pre_crash_ids).encode(), digest.digest()
        )

    def before_boot(self, spawner: Spawner) -> None:
        # Every boot recovers from the same bytes: a boot may compact
        # or append, so each gets its own copy of the pre-crash dir.
        if self.data_dir is not None and self.data_dir != self.pre_crash:
            shutil.rmtree(self.data_dir, ignore_errors=True)
        self.data_dir = spawner.work.path / "data"
        shutil.copytree(self.pre_crash, self.data_dir)

    def _probe_set(self, conn: WireConn) -> List[bytes]:
        replies = []
        for frame in self.probe_frames:
            conn.send(frame)
            replies.append(conn.recv())
        return replies

    def attach(self, addresses: List[Tuple[str, int]]) -> None:
        self.conn = find_role(*addresses[0], role="reader")
        storage = self.conn.caps.get("storage") or {}
        if not storage.get("recovered"):
            raise BenchError(f"boot did not recover from the journal: {storage}")
        replies = self._probe_set(self.conn)
        if self.recovered_replies is None:
            # Entry for entry what the fleet answered before the crash.
            # Order is not compared across the crash: a reader holds a
            # scheme's entries in delta order, and the shared cache may
            # have served the capture from either worker's body.
            if [self._probe_ids(body) for body in replies] != self.pre_crash_ids:
                raise BenchError("recovered replies differ from the pre-crash capture")
            self.recovered_replies = replies
        elif replies != self.recovered_replies:
            # Recovery itself is deterministic: every boot over the
            # same bytes answers the probe set with the same bytes.
            raise BenchError("two recovery boots answered the probe set differently")

    @staticmethod
    def _probe_ids(body: bytes) -> List[str]:
        reply = decode_frame_body(body)
        return sorted(_entry_ids(reply["value"])) if reply.get("ok") else []

    def detach(self) -> None:
        super().detach()
        if self.writer_conn is not None:
            self.writer_conn.close()
            self.writer_conn = None

    def server_counters(self) -> Dict[str, Any]:
        """The reader's cache ledger with the writer's storage ledger.

        Only worker 0 appends and compacts; a reader's journal handle is
        read-only and its counters never move.
        """
        if self.writer_conn is None:
            host, port = self.conn.sock.getpeername()
            self.writer_conn = find_role(host, port, role="writer")
        counters = dict(self.conn.capabilities())
        counters["storage"] = self.writer_conn.capabilities().get("storage") or {}
        return counters

    def _verify_ok_flags(self, pool_index: int, body: bytes, sequence: int) -> int:
        subs = self._sub_replies(pool_index, body)
        return self.ops_per_sample if subs is None else self._flag_failures(subs)

    def verify(self, pool_index: int, body: bytes, sequence: int) -> int:
        subs = self._sub_replies(pool_index, body)
        if subs is None:
            return self.ops_per_sample
        failed = self._flag_failures(subs)
        if failed:
            return failed
        for half, (scheme, entry_id) in enumerate(self.meta[pool_index]):
            if scheme == "full_replication":
                # Read-your-writes through a reader: every server of
                # this scheme holds every entry, so the lookup that
                # follows the add must see it and the one after the
                # delete must not.
                if entry_id not in _entry_ids(subs[half * 4 + 1]["value"]):
                    failed += 1
                if entry_id in _entry_ids(subs[half * 4 + 3]["value"]):
                    failed += 1
        return failed

    def own_figures(self) -> Dict[str, Any]:
        size = sum(path.stat().st_size for path in self.data_dir.iterdir())
        return {
            "appendlog.data_dir_mb": size / 1e6,
            "data_dir_sha256": self.data_dir_sha256,
        }

    def extra_metrics(self) -> Dict[str, float]:
        """Un-batched single frames, window 1, through the reader."""
        conn = self.conn
        clock = time.perf_counter
        write_rtt, read_after = [], []
        for n in range(200):
            entry = Entry(f"v{self.entries + 1 + n % self.cycle_ids}")
            server = n % SERVERS
            for message, bucket in (
                (AddRequest(entry), write_rtt),
                (LookupRequest(0), read_after),
                (DeleteRequest(entry), write_rtt),
                (LookupRequest(0), read_after),
            ):
                frame = encode_envelope_as(
                    _send(n, server, "full_replication", message), "binary"
                )
                started = clock()
                conn.send(frame)
                conn.recv()
                bucket.append(clock() - started)
        return {
            "workers.write_rtt_ms": statistics.median(write_rtt) * 1e3,
            "workers.read_after_write_ms": statistics.median(read_after) * 1e3,
        }


# --------------------------------------------------------------------------
# Two shards behind the typed router, JSON, one envelope per contact
# --------------------------------------------------------------------------


class RoutedJson(Workload):
    name = "routed_json"
    ops_per_sample = 1
    #: Closed-loop callers, each with its own router and seeded RNG so
    #: every caller's contact orders repeat whatever the interleaving.
    #: Eight keep the load generator saturated: with two it sleeps
    #: between replies, every contact pays two cross-core wake-ups, and
    #: run-to-run spread triples (9-12 % against 2-4 %, bench/README.md).
    window = 8
    pool_ops = 4096
    shapes = (
        ("full_replication", 8), ("full_replication", 200),
        ("fixed", 8),
        ("random_server", 8), ("random_server", 30),
        ("round_robin", 8), ("round_robin", 60),
        ("hash", 8), ("hash", 60),
    )

    def __init__(self, seed: int, ops: int, paced_ops_per_s: float,
                 share: float = 1.0) -> None:
        super().__init__(seed, ops, paced_ops_per_s, share)
        self.loop = asyncio.new_event_loop()
        self.routers: List[ShardRouter] = []
        self.ports: List[int] = []
        self._cursor = 0
        self.contacts = 0
        self.lookups = 0
        self.addresses: List[Tuple[str, int]] = []

    def build_pool(self) -> None:
        rng = random.Random(f"routed_json|{self.seed}")
        self.pool = [rng.choice(self.shapes) for _ in range(self.pool_ops)]
        self.inputs_sha256 = hashlib.sha256(repr(self.pool).encode()).hexdigest()

    def before_boot(self, spawner: Spawner) -> None:
        self.ports = [free_port(), free_port()]

    def commands(self) -> List[List[str]]:
        peers = ",".join(f"s{i}=127.0.0.1:{port}" for i, port in enumerate(self.ports))
        return [
            [
                "--port", str(port), "--servers", str(SERVERS), "--entries", "320",
                "--seed", str(CLUSTER_SEED), "--shard", f"{index}/2",
                "--peers", peers, "--replicas", "2", "--incarnation", "1",
            ]
            for index, port in enumerate(self.ports)
        ]

    def attach(self, addresses: List[Tuple[str, int]]) -> None:
        self.addresses = addresses
        shards = {f"s{i}": address for i, address in enumerate(addresses)}
        self.routers = [
            ShardRouter(
                shards, replicas=2, codec="json",
                rng=random.Random(f"routed_json|{self.seed}|caller{caller}"),
            )
            for caller in range(self.window)
        ]
        result = self.loop.run_until_complete(
            self.routers[0].lookup("full_replication", 8)
        )
        if not self._ok(result, 8, deep=True):
            raise BenchError(f"probe lookup failed: {result!r}")

    def detach(self) -> None:
        for router in self.routers:
            self.loop.run_until_complete(router.close())
        self.routers = []

    def close(self) -> None:
        self.loop.close()

    @staticmethod
    def _ok(result: Any, target: int, deep: bool) -> bool:
        if result.status != "ok" or len(result.entries) < target:
            return False
        if deep:
            return len({entry.entry_id for entry in result.entries}) >= target
        return True

    async def _caller(self, router: ShardRouter, indices: Sequence[int],
                      result: PhaseResult, deadline: float) -> List[Tuple[float, float]]:
        """One closed-loop caller; returns ``(started, ended)`` per answered op."""
        clock = time.perf_counter
        stamps = []
        for n, index in enumerate(indices):
            key, target = self.pool[index]
            started = clock()
            if started > deadline:
                break
            try:
                answer = await router.lookup(key, target)
            except (ConnectionError, OSError) as exc:
                result.error = f"{type(exc).__name__}: {exc}"
                continue
            stamps.append((started, clock()))
            if not self._ok(answer, target, deep=n % DEEP_EVERY == 0):
                result.ops_failed += 1
            self.contacts += answer.messages
            self.lookups += 1
        return stamps

    def _next_indices(self, ops: int) -> List[int]:
        size = len(self.pool)
        order = [(self._cursor + i) % size for i in range(ops)]
        self._cursor = (self._cursor + ops) % size
        return order

    @staticmethod
    def _settle(result: PhaseResult, stamps: List[Tuple[float, ...]], timeout: float) -> PhaseResult:
        """Fill the timestamp columns; an op without a stamp failed.

        Answered-but-wrong ops were counted when they were checked; an
        op with no stamp raised or was cut off by the phase timeout.
        """
        stamps.sort(key=lambda stamp: stamp[-1])
        result.sent = [stamp[-2] for stamp in stamps]
        result.done = [stamp[-1] for stamp in stamps]
        if stamps and len(stamps[0]) == 3:
            result.intended = [stamp[0] for stamp in stamps]
        unanswered = result.frames_attempted - len(stamps)
        if unanswered:
            result.ops_failed += unanswered
            result.error = result.error or f"phase exceeded its {timeout:.0f} s timeout"
        return result

    def _closed_loop(self, ops: int, timeout: float,
                     every_second: Optional[Callable[[], None]] = None) -> PhaseResult:
        result = PhaseResult(1)
        result.frames_attempted = ops
        order = self._next_indices(ops)
        result.started = time.perf_counter()
        deadline = result.started + timeout

        async def ticker() -> None:
            while True:
                await asyncio.sleep(1.0)
                every_second()

        async def callers() -> List[List[Tuple[float, float]]]:
            tick = asyncio.ensure_future(ticker()) if every_second is not None else None
            try:
                return await asyncio.gather(*(
                    self._caller(router, order[c :: self.window], result, deadline)
                    for c, router in enumerate(self.routers)
                ))
            finally:
                if tick is not None:
                    tick.cancel()

        per_caller = self.loop.run_until_complete(callers())
        result.ended = time.perf_counter()
        return self._settle(
            result, [pair for caller in per_caller for pair in caller], timeout
        )

    def own_figures(self) -> Dict[str, Any]:
        if not self.lookups:
            return {}
        return {"lookup_session.contacts_per_lookup": self.contacts / self.lookups}

    def warm_up(self) -> PhaseResult:
        return self._closed_loop(max(self.window, int(self.pool_ops * WARMUP_SHARE)), 60.0)

    def measure(self, timeout: float, every_second: Callable[[], None]) -> PhaseResult:
        self.contacts = self.lookups = 0
        return self._closed_loop(self.ops, timeout, every_second)

    def paced(self, seconds: float, timeout: float) -> PhaseResult:
        """Open loop: one task per lookup, started at its intended time."""
        rate = self.paced_ops_per_s
        result = PhaseResult(1)
        result.frames_attempted = max(1, int(rate * seconds))
        order = self._next_indices(result.frames_attempted)
        clock = time.perf_counter
        stamps: List[Tuple[float, float, float]] = []

        async def one(router: ShardRouter, index: int, due: float, sent: float) -> None:
            key, target = self.pool[index]
            try:
                answer = await router.lookup(key, target)
            except (ConnectionError, OSError) as exc:
                result.error = f"{type(exc).__name__}: {exc}"
                return
            stamps.append((due, sent, clock()))
            if not self._ok(answer, target, deep=False):
                result.ops_failed += 1

        async def pace() -> None:
            tasks = []
            start = clock()
            for n, index in enumerate(order):
                due = start + n / rate
                if due > start + timeout:
                    break
                while clock() < due:
                    # Yield so replies are read while waiting; a timed
                    # sleep would add the timer's wake-up jitter.
                    await asyncio.sleep(0)
                tasks.append(asyncio.ensure_future(
                    one(self.routers[n % self.window], index, due, clock())
                ))
            done, pending = await asyncio.wait(tasks, timeout=timeout)
            for task in pending:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        result.started = clock()
        self.loop.run_until_complete(pace())
        result.ended = clock()
        return self._settle(result, stamps, timeout)

    def extra_metrics(self) -> Dict[str, float]:
        """Round trips only live shards can time: one contact, one view refresh."""
        clock = time.perf_counter
        contact, refresh = [], []

        async def probe() -> None:
            async with AsyncLookupClient(*self.addresses[0], codec="json") as client:
                for n in range(200):
                    started = clock()
                    await client.contact_server(n % SERVERS, "round_robin", LookupRequest(8))
                    contact.append(clock() - started)
            for _ in range(50):
                started = clock()
                await self.routers[0].membership_view(refresh=True)
                refresh.append(clock() - started)

        self.loop.run_until_complete(probe())
        return {
            "client.contact_ms": statistics.median(contact) * 1e3,
            "membership.view_refresh_ms": statistics.median(refresh) * 1e3,
        }


WORKLOADS = {
    cls.name: cls for cls in (WireSampled, WireCached, RoutedJson, DurableFleetRW)
}
