"""Net-service throughput: concurrent partial lookups over real sockets.

Boots one in-process :class:`~repro.net.service.LookupService` on an
ephemeral loopback port and measures sustained lookups/second with a
small fleet of concurrent async clients — the socket path's end-to-end
cost (framing, codec, event-loop scheduling, protocol pump) on top of
the simulator work the other benches already measure.  Three metrics
go into the ``--bench-json`` artifact:

- ``net_lookups_per_sec`` — the original workload: sequential
  single lookups (one request/response round trip each) over the
  JSON codec, from a small fleet of concurrent clients.
- ``net_batched_lookups_per_sec`` — the pipelined path: one client,
  binary codec, ``lookup_many`` packing many lookups per write with
  out-of-order response correlation.  Uses ``full_replication`` (one
  contact per lookup) so the metric isolates wire + dispatch cost
  rather than multiplying it by a scheme's retry chain.
- ``net_multiclient_lookups_per_sec`` — several concurrent binary
  clients each running batched ``lookup_many``, sharing one server
  event loop: the contended aggregate throughput.
- ``net_hotkey_cached_lookups_per_sec`` — a Zipf-shaped stream of
  repeated RNG-free lookups against the hot-key reply cache
  (:mod:`repro.net.cache`); the same stream is replayed against a
  cache-disabled twin and every reply body is asserted byte-identical,
  with ``net_hotkey_cache_ratio`` recording the cached/uncached
  speedup (the PR's acceptance floor is 2x).
- ``net_workers2_lookups_per_sec`` — the multi-core path: a real
  ``repro serve --workers 2`` subprocess fleet (SO_REUSEPORT) driven
  by concurrent batched binary clients, torn down with SIGTERM and
  asserted to exit cleanly.  The
  ``_workers2`` suffix lets ``scripts/check_bench_regression.py``
  demote the metric to informational on boxes with fewer cores.
- ``net_log_store_lookups_per_sec`` / ``net_log_store_ratio`` — the
  batched workload against a ``--store log`` service vs its in-memory
  twin; the ratio is gated at >= 0.8 (lookups never journal, so the
  durable backend's read path must cost what memory's does).
- ``net_log_recovery_entries_per_sec`` — cold-start journal replay
  cost: a crashed five-scheme placement rebuilt from disk, timed as a
  whole ``LookupService`` construction.

Recorded numbers are machine-relative.  The committed baselines were
taken on a 1-core CI-class container; absolute values on other
hardware differ (the pre-batching ``net_lookups_per_sec`` baseline of
4,021.6 came from a ~1.3x faster box than the one that recorded the
batched numbers — compare ratios within one artifact, not across
machines).  Per-lookup cost on the batched path is dominated by the
protocol's pinned RNG draws (client probe-order shuffle + server
sampling) and the event-loop floor, not the codec, which is why the
batched speedup saturates around 6-8x the sequential path on one core.
"""

import asyncio
import os
import random
import signal
import struct
import tempfile
import time

from repro.chaos.process import ServeProcess
from repro.cluster.messages import LookupRequest
from repro.net.cache import DEFAULT_CAPACITY
from repro.net.client import AsyncLookupClient
from repro.net.codec import (
    CODEC_BINARY,
    encode_envelope_as,
    encode_message,
    hello_envelope,
    read_frame,
    write_frame,
)
from repro.net.service import LookupService, ServiceConfig

CLIENTS = 4
LOOKUPS_PER_CLIENT = 75
TARGET = 8
SCHEME = "round_robin"


async def _drive(host, port, seed):
    async with AsyncLookupClient(host, port, rng=random.Random(seed)) as client:
        await client.info()  # warm the topology cache before timing
        for _ in range(LOOKUPS_PER_CLIENT):
            result = await client.lookup(SCHEME, TARGET)
            assert result.success
    return LOOKUPS_PER_CLIENT


async def _throughput():
    service = LookupService(ServiceConfig(server_count=16, entry_count=40, seed=3))
    host, port = await service.start(port=0)
    try:
        started = time.perf_counter()
        counts = await asyncio.gather(
            *(_drive(host, port, seed) for seed in range(CLIENTS))
        )
        elapsed = time.perf_counter() - started
    finally:
        await service.stop()
    return sum(counts) / elapsed


def test_bench_net_service_throughput(bench_json_record):
    lookups_per_sec = asyncio.run(asyncio.wait_for(_throughput(), timeout=120))
    print(
        f"\nnet service: {CLIENTS} clients x {LOOKUPS_PER_CLIENT} lookups "
        f"(target {TARGET}, {SCHEME}) -> {lookups_per_sec:,.0f} lookups/s"
    )
    bench_json_record("net_lookups_per_sec", round(lookups_per_sec, 1))
    # Sanity floor, far below any plausible loopback result: catches a
    # pathological regression (e.g. an accidental per-lookup reconnect)
    # without being machine-sensitive.
    assert lookups_per_sec > 50


BATCH_SCHEME = "full_replication"
BATCH_WARMUP = 50
BATCH_LOOKUPS = 4000
BATCH_CLIENTS = 3
BATCH_LOOKUPS_PER_CLIENT = 1200


async def _drive_batched(host, port, seed, count):
    async with AsyncLookupClient(
        host, port, rng=random.Random(seed), codec="binary"
    ) as client:
        await client.lookup_many(BATCH_SCHEME, [TARGET] * BATCH_WARMUP)
        started = time.perf_counter()
        report = await client.lookup_many(BATCH_SCHEME, [TARGET] * count)
        elapsed = time.perf_counter() - started
    assert len(report) == count and report.all_success
    return count, elapsed


async def _batched_throughput():
    service = LookupService(ServiceConfig(server_count=16, entry_count=40, seed=3))
    host, port = await service.start(port=0)
    try:
        count, elapsed = await _drive_batched(host, port, 7, BATCH_LOOKUPS)
    finally:
        await service.stop()
    return count / elapsed


async def _multiclient_throughput():
    service = LookupService(ServiceConfig(server_count=16, entry_count=40, seed=3))
    host, port = await service.start(port=0)
    try:
        started = time.perf_counter()
        results = await asyncio.gather(
            *(
                _drive_batched(host, port, seed, BATCH_LOOKUPS_PER_CLIENT)
                for seed in range(BATCH_CLIENTS)
            )
        )
        elapsed = time.perf_counter() - started
    finally:
        await service.stop()
    return sum(count for count, _ in results) / elapsed


def test_bench_net_batched_throughput(bench_json_record):
    lookups_per_sec = asyncio.run(asyncio.wait_for(_batched_throughput(), timeout=120))
    print(
        f"\nnet service batched: 1 client x {BATCH_LOOKUPS} lookups "
        f"(target {TARGET}, {BATCH_SCHEME}, binary codec, pipelined) "
        f"-> {lookups_per_sec:,.0f} lookups/s"
    )
    bench_json_record("net_batched_lookups_per_sec", round(lookups_per_sec, 1))
    # The pipelined binary path must stay well clear of the sequential
    # JSON path; the committed-baseline ratio is gated separately by
    # scripts/check_bench_regression.py.
    assert lookups_per_sec > 500


def test_bench_net_multiclient_throughput(bench_json_record):
    lookups_per_sec = asyncio.run(
        asyncio.wait_for(_multiclient_throughput(), timeout=120)
    )
    print(
        f"\nnet service multiclient: {BATCH_CLIENTS} clients x "
        f"{BATCH_LOOKUPS_PER_CLIENT} lookups "
        f"(target {TARGET}, {BATCH_SCHEME}, binary codec, pipelined) "
        f"-> {lookups_per_sec:,.0f} lookups/s"
    )
    bench_json_record("net_multiclient_lookups_per_sec", round(lookups_per_sec, 1))
    assert lookups_per_sec > 500


# --------------------------------------------------------------------------
# Hot-key reply cache: Zipf-repeated lookups, cache-on vs cache-off twins
# --------------------------------------------------------------------------

HOTKEY_SERVERS = 12
#: Large enough that packing the reply dominates the uncached cost
#: (the cache's memcpy win scales with reply size; per-frame event-loop
#: overhead is paid by both twins and dilutes the ratio).
HOTKEY_ENTRIES = 320
HOTKEY_LOOKUPS = 1500
HOTKEY_SCHEME = "full_replication"


def _hotkey_frames():
    """The benchmark's request stream, pre-encoded once.

    Zipf(1)-weighted server ids (rank-``r`` server drawn with weight
    ``1/(r+1)``) over ``full_replication`` with ``target=0`` — the
    RNG-free "send everything" shape, so every request is cacheable
    and the cache-on and cache-off services consume identical RNG
    streams.  Both services are fed the *same* byte-for-byte frames.
    """
    rng = random.Random(101)
    weights = [1.0 / (rank + 1) for rank in range(HOTKEY_SERVERS)]
    sids = rng.choices(range(HOTKEY_SERVERS), weights=weights, k=HOTKEY_LOOKUPS)
    message = encode_message(LookupRequest(0))
    def frame(sid):
        return encode_envelope_as(
            {"op": "send", "server": sid, "key": HOTKEY_SCHEME, "message": message},
            CODEC_BINARY,
        )
    warmup = [frame(sid) for sid in range(HOTKEY_SERVERS)]
    return warmup, [frame(sid) for sid in sids]


async def _pipeline_raw(reader, writer, frames):
    """Blast pre-encoded frames down one connection; collect raw reply bodies.

    Replies are read as opaque length-prefixed byte strings (never
    decoded) so the cache-on/cache-off comparison is on the exact
    wire bytes, not on a parsed view that could mask a difference.
    """
    writer.write(b"".join(frames))
    drain = asyncio.ensure_future(writer.drain())
    bodies = []
    for _ in frames:
        (length,) = struct.unpack(">I", await reader.readexactly(4))
        bodies.append(await reader.readexactly(length))
    await drain
    return bodies


async def _hotkey_run(cache_size, warmup, frames):
    service = LookupService(
        ServiceConfig(
            server_count=HOTKEY_SERVERS,
            entry_count=HOTKEY_ENTRIES,
            seed=3,
            cache_size=cache_size,
        )
    )
    host, port = await service.start(port=0)
    try:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            await write_frame(writer, hello_envelope((CODEC_BINARY,)))
            hello = await read_frame(reader)
            assert hello and hello.get("ok")
            await _pipeline_raw(reader, writer, warmup)
            started = time.perf_counter()
            bodies = await _pipeline_raw(reader, writer, frames)
            elapsed = time.perf_counter() - started
        finally:
            writer.close()
            await writer.wait_closed()
        cache = service.reply_cache
        stats = cache.snapshot() if cache is not None else None
    finally:
        await service.stop()
    return bodies, elapsed, stats


async def _hotkey_throughput():
    warmup, frames = _hotkey_frames()
    cached_bodies, cached_elapsed, stats = await _hotkey_run(
        DEFAULT_CAPACITY, warmup, frames
    )
    uncached_bodies, uncached_elapsed, _ = await _hotkey_run(0, warmup, frames)
    return {
        "cached_bodies": cached_bodies,
        "uncached_bodies": uncached_bodies,
        "cached_per_sec": HOTKEY_LOOKUPS / cached_elapsed,
        "uncached_per_sec": HOTKEY_LOOKUPS / uncached_elapsed,
        "ratio": uncached_elapsed / cached_elapsed,
        "stats": stats,
    }


def test_bench_net_hotkey_cache(bench_json_record):
    run = asyncio.run(asyncio.wait_for(_hotkey_throughput(), timeout=120))
    print(
        f"\nnet service hot-key cache: {HOTKEY_LOOKUPS} Zipf lookups "
        f"(target 0, {HOTKEY_SCHEME}, {HOTKEY_ENTRIES} entries, binary codec) "
        f"-> cached {run['cached_per_sec']:,.0f}/s vs uncached "
        f"{run['uncached_per_sec']:,.0f}/s ({run['ratio']:.2f}x), "
        f"cache {run['stats']['hits']} hits / {run['stats']['misses']} misses"
    )
    # Soundness before speed: the cached service must serve the exact
    # reply bytes the uncached twin computes, on every single request.
    assert run["cached_bodies"] == run["uncached_bodies"]
    # The warmup covered every server id once, so the timed stream is
    # all hits on the cached service.
    assert run["stats"]["hits"] >= HOTKEY_LOOKUPS
    # Acceptance floor for this PR: >= 2x on the Zipf-repeated-key
    # workload.  Measured ~4x on a 1-core container; 2.0 leaves slack
    # for runner noise without letting the cache silently stop caching.
    assert run["ratio"] >= 2.0
    bench_json_record(
        "net_hotkey_cached_lookups_per_sec", round(run["cached_per_sec"], 1)
    )
    # Informational companion (no _per_sec/_speedup suffix, so the
    # regression gate reports it without gating): the measured ratio.
    bench_json_record("net_hotkey_cache_ratio", round(run["ratio"], 2))


# --------------------------------------------------------------------------
# Worker fleet: a real `serve --workers 2` subprocess, driven and torn down
# --------------------------------------------------------------------------

FLEET_WORKERS = 2
FLEET_CLIENTS = 3
FLEET_LOOKUPS_PER_CLIENT = 800


#: A ``serve --workers 2`` fleet on an ephemeral port.
FLEET_ARGS = [
    "--host", "127.0.0.1", "--port", "0", "--servers", "16", "--entries", "40",
    "--seed", "3", "--workers", str(FLEET_WORKERS),
]


async def _drive_fleet(host, port):
    started = time.perf_counter()
    results = await asyncio.gather(
        *(
            _drive_batched(host, port, seed, FLEET_LOOKUPS_PER_CLIENT)
            for seed in range(FLEET_CLIENTS)
        )
    )
    elapsed = time.perf_counter() - started
    return sum(count for count, _ in results) / elapsed


def test_bench_net_workers_throughput(bench_json_record):
    with ServeProcess(FLEET_ARGS) as fleet:
        lookups_per_sec = asyncio.run(
            asyncio.wait_for(_drive_fleet(fleet.host, fleet.port), timeout=120)
        )
        code = fleet.stop()
        output = fleet.output()
    print(
        f"\nnet service workers: {FLEET_WORKERS} workers x {FLEET_CLIENTS} "
        f"clients x {FLEET_LOOKUPS_PER_CLIENT} lookups "
        f"(target {TARGET}, {BATCH_SCHEME}, binary codec, pipelined) "
        f"-> {lookups_per_sec:,.0f} lookups/s"
    )
    # Clean SIGTERM teardown is part of the contract being measured.
    assert code == 0, output
    assert "[serve] stopped" in output
    assert "Traceback" not in output
    bench_json_record("net_workers2_lookups_per_sec", round(lookups_per_sec, 1))
    assert lookups_per_sec > 500

# --------------------------------------------------------------------------
# Warm respawn: hit rate of a SIGKILLed-and-respawned reader's first lookups
# --------------------------------------------------------------------------


async def _fleet_probe(host, port, frame):
    """One fresh binary connection: hot lookup, then an info probe.

    Returns the answering worker's capabilities dict — fresh
    connections land on an arbitrary fleet worker, so the caller loops
    until the worker it wants answers.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, hello_envelope((CODEC_BINARY,)))
        hello = await read_frame(reader)
        assert hello and hello.get("ok")
        await _pipeline_raw(reader, writer, [frame])
        info = await _request_json(reader, writer)
        return info["capabilities"]
    finally:
        writer.close()
        await writer.wait_closed()


async def _request_json(reader, writer):
    await write_frame(writer, {"op": "info"}, codec=CODEC_BINARY)
    reply = await read_frame(reader)
    assert reply and reply.get("ok")
    return reply["value"]


async def _warm_respawn_hit_rate(fleet):
    host, port = fleet.host, fleet.port
    hot = encode_envelope_as(
        {
            "op": "send",
            "server": 0,
            "key": BATCH_SCHEME,
            "message": encode_message(LookupRequest(0)),
        },
        CODEC_BINARY,
    )
    seen = set()
    for _ in range(60):
        caps = await _fleet_probe(host, port, hot)
        seen.add(caps["workers"]["index"])
        if {0, 1} <= seen:
            break
    assert {0, 1} <= seen, f"probes only reached workers {sorted(seen)}"

    victims = fleet.workers()
    os.kill(victims[1], signal.SIGKILL)
    # Raises if the fleet died or no reader came back.
    fleet.await_respawn(1, victims[1])

    for _ in range(60):
        caps = await _fleet_probe(host, port, hot)
        if caps["workers"]["index"] == 1:
            return caps["cache"]["hit_rate"]
    raise AssertionError("probes never reached the respawned reader")


def test_bench_net_warm_respawn_hit_rate(bench_json_record):
    """Hit rate of the respawned reader's first served lookup: 1.0 when
    the warm handoff (hot-set import over the bus sync) works, 0.0 when
    the replacement boots cold."""
    with ServeProcess(FLEET_ARGS) as fleet:
        hit_rate = asyncio.run(
            asyncio.wait_for(_warm_respawn_hit_rate(fleet), timeout=120)
        )
        fleet.stop()
    print(f"\nnet service warm respawn: respawned reader hit rate {hit_rate:.3f}")
    bench_json_record("net_warm_respawn_hit_rate", round(hit_rate, 3))
    assert hit_rate >= 0.99


# --------------------------------------------------------------------------
# Append-log store: read-path parity with memory, and recovery cost
# --------------------------------------------------------------------------

LOG_STORE_LOOKUPS = 3000


async def _store_throughput(store, data_dir=None):
    """The pipelined batched-lookup workload against a chosen backend.

    Lookups never journal (only mutations append records), so the log
    backend's read path should cost what the memory backend's does —
    this pair of runs is the proof, and ``net_log_store_ratio`` the
    regression tripwire for any journaling that leaks onto reads.
    """
    overrides = {}
    if store == "log":
        overrides = {"store": "log", "data_dir": data_dir}
    service = LookupService(
        ServiceConfig(server_count=16, entry_count=40, seed=3, **overrides)
    )
    host, port = await service.start(port=0)
    try:
        count, elapsed = await _drive_batched(host, port, 7, LOG_STORE_LOOKUPS)
    finally:
        await service.stop()
    return count / elapsed


def test_bench_net_log_store_throughput(bench_json_record):
    with tempfile.TemporaryDirectory(prefix="bench-logstore-") as tmpdir:
        log_rate = asyncio.run(
            asyncio.wait_for(_store_throughput("log", tmpdir), timeout=120)
        )
    memory_rate = asyncio.run(
        asyncio.wait_for(_store_throughput("memory"), timeout=120)
    )
    ratio = log_rate / memory_rate
    print(
        f"\nnet service log store: {LOG_STORE_LOOKUPS} lookups "
        f"(target {TARGET}, {BATCH_SCHEME}, binary codec, pipelined) "
        f"-> log {log_rate:,.0f}/s vs memory {memory_rate:,.0f}/s "
        f"({ratio:.2f}x)"
    )
    bench_json_record("net_log_store_lookups_per_sec", round(log_rate, 1))
    # Informational name (no _per_sec suffix) but gated by an absolute
    # floor in scripts/check_bench_regression.py: the acceptance
    # criterion is the log backend serving >= 80% of memory's rate.
    bench_json_record("net_log_store_ratio", round(ratio, 2))
    assert ratio >= 0.8


RECOVERY_SERVERS = 12
RECOVERY_ENTRIES = 400


def test_bench_net_log_recovery(bench_json_record):
    """Cold-start journal replay cost, in recovered store entries/sec.

    Builds a full five-scheme placement on the log backend (every add
    journaled), closes the journal as a crash would leave it, and times
    a complete ``LookupService`` reconstruction from disk — replay,
    image application, and strategy re-construction included.
    """
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmpdir:
        def config():
            return ServiceConfig(
                server_count=RECOVERY_SERVERS,
                entry_count=RECOVERY_ENTRIES,
                seed=3,
                store="log",
                data_dir=tmpdir,
            )

        crashed = LookupService(config())
        stored = sum(
            crashed.cluster.storage_cost(key) for key in crashed.strategies
        )
        crashed.journal.close()
        started = time.perf_counter()
        reborn = LookupService(config())
        elapsed = time.perf_counter() - started
        assert reborn.recovered
        recovered = sum(
            reborn.cluster.storage_cost(key) for key in reborn.strategies
        )
        assert recovered == stored
    entries_per_sec = stored / elapsed
    print(
        f"\nnet service log recovery: {stored} store entries "
        f"({RECOVERY_SERVERS} servers x {RECOVERY_ENTRIES} entries, "
        f"5 schemes) replayed in {elapsed:.3f}s "
        f"-> {entries_per_sec:,.0f} entries/s"
    )
    bench_json_record("net_log_recovery_entries_per_sec", round(entries_per_sec, 1))
    # Far-below-plausible floor: catches a pathological replay (e.g.
    # quadratic re-scans) without being machine-sensitive.
    assert entries_per_sec > 1000
