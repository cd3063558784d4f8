"""The traced run: replay a workload's first ops in-process, with spans.

Each replay builds its own ``LookupService`` instances, feeds them the
same pre-encoded pool the live run sends over TCP, and wraps every
public call on the way in a span.  Inner layers (cache, protocol,
storage, journal) are reached through :class:`trace.Patches`.  Every
``repro`` name beyond the wire surface is resolved through
:func:`trace.lookup`; what is missing is skipped and reported.

A replay returns ``{metric name: value}`` for the layers on its
workload's path.  Layers off the path are simply not in the dict (the
runner prints them as 0 / n/a), which is itself the prediction the
issue asks for: a workload that bypasses a layer shows nothing there.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.net.codec import decode_frame_body

from trace import Patches, Tracer, lookup
from workloads import SERVERS, DurableFleetRW, RoutedJson, Workload

#: Ops replayed per traced pass (the issue's "first 2 000 ops").
REPLAY_OPS = 2000

_INNER = (
    ("cache.put", "repro.net.cache:ReplyCache.put"),
    ("cache.shared_put", "repro.net.cache:SharedReplyCache.put"),
    ("protocol_server.answer_lookup", "repro.protocol.server:answer_lookup"),
    ("core_storage.sample", "repro.core.storage:MemoryBackend.sample"),
    ("core_storage.add", "repro.core.storage:MemoryBackend.add"),
    ("core_storage.discard", "repro.core.storage:MemoryBackend.discard"),
    ("workers.apply_delta", "repro.net.workers:apply_delta"),
)


def _hit_or_miss(prefix: str) -> Callable[[Any, tuple], str]:
    return lambda result, _args: f"{prefix}_hit" if result is not None else f"{prefix}_miss"


def _install_inner(patches: Patches) -> None:
    for span_name, target in _INNER:
        patches.install(span_name, target)
    patches.install("cache.get", "repro.net.cache:ReplyCache.get", _hit_or_miss("cache.get"))
    patches.install(
        "cache.shared_get", "repro.net.cache:SharedReplyCache.get",
        _hit_or_miss("cache.shared_get"),
    )
    # A read-only or replaying journal returns False without writing;
    # only real appends belong in the per-record cost.
    patches.install(
        "appendlog.append", "repro.storage.appendlog:AppendLogJournal.append",
        lambda wrote, _args: "appendlog.append" if wrote else "appendlog.append_skipped",
    )


def _service(**config: Any) -> Any:
    service_cls = lookup("repro.net.service:LookupService")
    config_cls = lookup("repro.net.service:ServiceConfig")
    if service_cls is None or config_cls is None:
        return None
    return service_cls(config_cls(server_count=SERVERS, seed=0, **config))


def _timed(tracer: Tracer, name: str, repeat: int, func: Callable[[], Any]) -> Any:
    result = None
    for _ in range(repeat):
        result = tracer.leaf(name, func)
    return result


def _quietly(tracer: Tracer, func: Callable[[], Any]) -> Any:
    """Run set-up code under installed patches without recording it."""
    enabled, tracer.enabled = tracer.enabled, False
    try:
        return func()
    finally:
        tracer.enabled = enabled


def _cache_metrics(tracer: Tracer) -> Dict[str, float]:
    return {
        "cache.get_hit_us": tracer.mean_us("cache.get_hit"),
        "cache.get_miss_us": tracer.mean_us("cache.get_miss"),
        "cache.put_us": tracer.mean_us("cache.put"),
        "cache.shared_get_us": tracer.mean_us("cache.shared_get_hit")
        or tracer.mean_us("cache.shared_get_miss"),
        "cache.shared_put_us": tracer.mean_us("cache.shared_put"),
    }


# --------------------------------------------------------------------------
# wire_sampled / wire_cached: decode -> handle(batch) -> encode, per frame
# --------------------------------------------------------------------------


def _wire_pass(workload: Workload, tracer: Tracer) -> Tuple[float, Dict[str, float]]:
    """One pass over the first frames; returns (wall seconds, metrics)."""
    service = _quietly(tracer, lambda: _service(entry_count=320))
    encode = lookup("repro.net.codec:encode_envelope_fragments")
    if service is None or encode is None:
        return 0.0, {}
    frames = workload.pool[: REPLAY_OPS // workload.ops_per_sample]
    cached = workload.name == "wire_cached"
    encode_span = "codec.encode_reply_prepacked" if cached else "codec.encode_reply"
    per = float(workload.ops_per_sample)
    if cached:
        # Fill pass (untraced ids): every key is cached before timing,
        # as after the live run's warm-up.
        _quietly(tracer, lambda: [
            service.handle_envelope(decode_frame_body(body[4:]), raw=True)
            for body in workload.pool
        ])
    started = time.perf_counter()
    singles: List[Dict[str, Any]] = []
    for index, frame in enumerate(frames):
        tracer.op_id = index
        envelope = tracer.call("codec.decode_request", decode_frame_body, frame[4:])
        reply = tracer.call("service.handle_batch", service.handle_envelope, envelope, raw=True)
        b"".join(tracer.call(encode_span, encode, reply))
        singles.extend(envelope["requests"][:2])
    wall = time.perf_counter() - started
    # The same sub-requests as single `send` envelopes: the dispatch
    # path without the batch loop, whose self time is pure dispatch.
    send_span = "service.handle_lookup_hit" if cached else "service.handle_lookup_miss"
    for sub in singles:
        tracer.call(send_span, service.handle_envelope, sub, raw=True)
    _timed(tracer, "service.boot", 5, lambda: _service(entry_count=320))
    metrics = {
        "codec.decode_request_us": tracer.mean_us("codec.decode_request", per),
        f"{encode_span}_us": tracer.mean_us(encode_span, per),
        "service.handle_batch_us_per_op": tracer.mean_us("service.handle_batch", per),
        f"{send_span}_us": tracer.mean_us(send_span),
        "service.boot_ms": tracer.mean_us("service.boot") / 1e3,
        "protocol_server.answer_lookup_us": tracer.mean_us("protocol_server.answer_lookup"),
        "core_storage.sample_us": tracer.mean_us("core_storage.sample"),
    }
    if not cached:
        metrics["service.dispatch_self_us"] = tracer.mean_self_us(send_span)
    metrics.update(_cache_metrics(tracer))
    return wall, metrics


# --------------------------------------------------------------------------
# routed_json: the real ShardRouter against two in-process shards
# --------------------------------------------------------------------------


def _routed_pass(workload: RoutedJson, tracer: Tracer) -> Tuple[float, Dict[str, float]]:
    router_cls = lookup("repro.net.router:ShardRouter")
    shards = _quietly(tracer, lambda: [
        _service(entry_count=320, shard_index=i, shard_count=2) for i in range(2)
    ])
    if router_cls is None or any(shard is None for shard in shards):
        return 0.0, {}
    ops = workload.pool[:REPLAY_OPS]
    contacts = 0

    async def run() -> float:
        nonlocal contacts
        addresses = {f"s{i}": await shard.start() for i, shard in enumerate(shards)}
        router = router_cls(
            addresses, replicas=2, codec="json",
            rng=random.Random(f"routed_json|{workload.seed}|replay"),
        )
        try:
            await router.lookup("full_replication", 8)  # dial + info, untimed
            traced_lookup = tracer.wrap("router.lookup", router.lookup)
            started = time.perf_counter()
            for index, (key, target) in enumerate(ops):
                tracer.op_id = index
                result = await traced_lookup(key, target)
                contacts += result.messages
            return time.perf_counter() - started
        finally:
            await router.close()
            for shard in shards:
                await shard.stop()

    loop = asyncio.new_event_loop()
    try:
        wall = loop.run_until_complete(run())
    finally:
        loop.close()
    lookups = float(len(ops))
    pump = tracer.durations("lookup_session.pump")
    encodes = tracer.durations("codec.json_encode_request") + tracer.durations(
        "codec.json_encode_reply"
    )
    metrics = {
        "codec.json_encode_us": sum(encodes) / len(encodes) * 1e6 if encodes else 0.0,
        "codec.json_decode_us": tracer.mean_us("codec.json_decode"),
        "service.handle_json_us": tracer.mean_us("service.handle_json"),
        "lookup_session.pump_us": sum(pump) / lookups * 1e6,
        "lookup_session.contacts_per_lookup": contacts / lookups,
        "sharding.home_us": tracer.mean_us("sharding.home"),
        "protocol_server.answer_lookup_us": tracer.mean_us("protocol_server.answer_lookup"),
        "core_storage.sample_us": tracer.mean_us("core_storage.sample"),
    }
    if tracer.enabled:
        metrics["codec.request_bytes_per_op"] = (
            sum(tracer.sizes("codec.json_encode_request")) / lookups
        )
        metrics["codec.reply_bytes_per_op"] = (
            sum(tracer.sizes("codec.json_encode_reply")) / lookups
        )
    metrics.update(_cache_metrics(tracer))
    return wall, metrics


def _routed_patches(patches: Patches) -> None:
    patches.install(
        "codec.json_encode", "repro.net.codec:encode_envelope",
        lambda _frame, args: "codec.json_encode_request"
        if "op" in args[0] else "codec.json_encode_reply",
    )
    patches.install("codec.json_decode", "repro.net.codec:decode_envelope")
    patches.install("service.handle_json", "repro.net.service:LookupService.handle_envelope")
    patches.install("client.contact", "repro.net.client:AsyncLookupClient.contact_server")
    patches.install("lookup_session.pump", "repro.protocol.lookup:LookupSession.start")
    patches.install("lookup_session.pump", "repro.protocol.lookup:LookupSession.on_event")
    patches.install("sharding.home", "repro.net.sharding:ShardMap.home")


def _membership_probe(tracer: Tracer) -> Dict[str, float]:
    """One failure-detector tick at 10 and at 100 peers."""
    protocol_cls = lookup("repro.protocol.membership:MembershipProtocol")
    tick_cls = lookup("repro.protocol.events:ClockTick")
    if protocol_cls is None or tick_cls is None:
        return {}
    out = {}
    for peers in (10, 100):
        machine = protocol_cls("s0", [f"s{i}" for i in range(1, peers + 1)], incarnation=1)
        now = 0.0
        for _ in range(200):
            now += 0.25
            tracer.call(f"membership.tick_{peers}", machine.on_event, tick_cls(now))
        out[f"membership.tick_us_{peers}"] = tracer.mean_us(f"membership.tick_{peers}")
    return out


# --------------------------------------------------------------------------
# durable_fleet_rw: a writer and a reader service over one journal
# --------------------------------------------------------------------------


def _durable_pass(
    workload: DurableFleetRW, tracer: Tracer, scratch: Any
) -> Tuple[float, Dict[str, float]]:
    compute = lookup("repro.net.workers:compute_apply_delta")
    applier_cls = lookup("repro.net.workers:DeltaApplier")
    wire_envelope = lookup("repro.net.workers:wire_envelope")
    mutates = lookup("repro.net.service:envelope_mutates")
    encode = lookup("repro.net.codec:encode_envelope_fragments")
    pack_reply = lookup("repro.net.codec:pack_send_reply")
    shared_cls = lookup("repro.net.cache:SharedReplyCache")
    if None in (compute, applier_cls, wire_envelope, mutates, encode, pack_reply):
        return 0.0, {}
    data_dir = scratch / "replay-data"
    shutil.rmtree(data_dir, ignore_errors=True)
    # Auto-compaction off: the journal's growth per write is then an
    # exact count, and the one compaction at the end is timed alone.
    config = dict(entry_count=workload.entries, store="log", data_dir=str(data_dir),
                  log_compact_records=0)
    writer = _quietly(tracer, lambda: _service(**config))
    if writer is None:
        return 0.0, {}
    # Fold the boot placement (tens of thousands of records) into a
    # snapshot, as a served fleet would have long since: the reader
    # then boots the way a recovery boot does, and everything the
    # journal holds beyond the snapshot is this replay's own.
    _quietly(tracer, writer.compact_journal)
    journal_cls = lookup("repro.storage.appendlog:AppendLogJournal")

    def load_journal() -> Any:
        return journal_cls(str(data_dir), read_only=True).load()

    if journal_cls is not None and tracer.enabled:
        _timed(tracer, "appendlog.load_snapshot_only", 2, load_journal)
    reader = _quietly(tracer, lambda: _service(store_read_only=True, **config))
    shared = None
    if shared_cls is not None:
        try:
            shared = shared_cls()
        except (OSError, ValueError):
            shared = None
    writer.shared_cache = reader.shared_cache = shared
    applier = applier_cls(reader, applied=reader.recovered_epoch)
    epoch = writer.recovered_epoch
    journal = writer.journal
    records_before, bytes_before = journal.log_records, journal.log_bytes
    writes = 0
    delta_bytes: List[int] = []
    frames = workload.pool[: REPLAY_OPS // workload.ops_per_sample]
    started = time.perf_counter()
    try:
        for index, frame in enumerate(frames):
            tracer.op_id = index
            envelope = tracer.call("codec.decode_request", decode_frame_body, frame[4:])
            replies = []
            for sub in envelope["requests"]:
                if mutates(sub):
                    # What the writer bus does for a forwarded write:
                    # apply, stamp the epoch, journal it, fan the delta out.
                    reply, delta = tracer.call(
                        "workers.compute_apply_delta", compute, writer, wire_envelope(sub)
                    )
                    writes += 1
                    if delta is not None:
                        epoch += 1
                        delta["epoch"] = epoch
                        writer.set_shared_epoch(delta["key"], epoch)
                        journal.record_epoch(delta["key"], epoch)
                        delta_bytes.append(len(json.dumps(delta, separators=(",", ":"))))
                        tracer.call("workers.delta_offer", applier.offer, delta)
                    reply["id"] = sub["id"]
                    replies.append(reply)
                else:
                    reply = tracer.call(
                        "service.handle_lookup_miss", reader.handle_envelope, sub, raw=True
                    )
                    replies.append(pack_reply(sub["id"], reply["value"]))
            b"".join(tracer.call(
                "codec.encode_reply", encode, {"ok": True, "value": replies, "id": index}
            ))
        wall = time.perf_counter() - started
        records = journal.log_records - records_before
        log_bytes = journal.log_bytes - bytes_before

        if tracer.enabled:
            # Probes over the state the replay left behind: the same
            # snapshot plus the replay's records, so the difference to
            # the snapshot-only load is pure log replay.
            if journal_cls is not None:
                _timed(tracer, "appendlog.load", 2, load_journal)
            # Recovery as a boot pays it: a snapshot plus a log tail.
            _timed(tracer, "service.recover", 3,
                   lambda: _service(store_read_only=True, **config))
            snapshot_stores = lookup("repro.net.workers:snapshot_stores")
            load_snapshot = lookup("repro.net.workers:load_snapshot")
            if snapshot_stores is not None and load_snapshot is not None:
                snapshot = _timed(tracer, "workers.snapshot", 3,
                                  lambda: snapshot_stores(writer))
                _timed(tracer, "workers.load_snapshot", 3,
                       lambda: load_snapshot(reader, snapshot))
            tracer.leaf("appendlog.compact", writer.compact_journal)
    finally:
        for service in (writer, reader):
            if service.journal is not None:
                service.journal.close()
        if shared is not None:
            shared.close(unlink=True)
        shutil.rmtree(data_dir, ignore_errors=True)
    per = float(workload.ops_per_sample)
    metrics = {
        "codec.decode_request_us": tracer.mean_us("codec.decode_request", per),
        "codec.encode_reply_us": tracer.mean_us("codec.encode_reply", per),
        "service.handle_lookup_miss_us": tracer.mean_us("service.handle_lookup_miss"),
        "service.recover_ms": tracer.mean_us("service.recover") / 1e3,
        "protocol_server.answer_lookup_us": tracer.mean_us("protocol_server.answer_lookup"),
        "core_storage.sample_us": tracer.mean_us("core_storage.sample"),
        "core_storage.add_us": tracer.mean_us("core_storage.add"),
        "core_storage.discard_us": tracer.mean_us("core_storage.discard"),
        "workers.compute_apply_delta_us": tracer.mean_us("workers.compute_apply_delta"),
        "workers.apply_delta_us": tracer.mean_us("workers.apply_delta"),
        "workers.delta_offer_us": tracer.mean_us("workers.delta_offer"),
        "workers.snapshot_ms": tracer.mean_us("workers.snapshot") / 1e3,
        "workers.load_snapshot_ms": tracer.mean_us("workers.load_snapshot") / 1e3,
        "appendlog.append_us": tracer.mean_us("appendlog.append"),
        "appendlog.compact_ms": tracer.mean_us("appendlog.compact") / 1e3,
    }
    if records and tracer.count("appendlog.load"):
        metrics["appendlog.load_us_per_record"] = (
            tracer.mean_us("appendlog.load")
            - tracer.mean_us("appendlog.load_snapshot_only")
        ) / records
    if writes:
        metrics["appendlog.records_per_write"] = records / writes
        metrics["appendlog.bytes_per_write"] = log_bytes / writes
    if delta_bytes:
        metrics["workers.delta_json_bytes"] = sum(delta_bytes) / len(delta_bytes)
    metrics.update(_cache_metrics(tracer))
    return wall, metrics


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run_replay(workload: Workload, scratch: Any, trace_path: str) -> Dict[str, Any]:
    """Replay spans-off, then spans-on; returns metrics, overhead and absentees.

    The spans-off pass doubles as the warm-up (imports, interned
    entries, codec memos), so the traced pass measures steady state;
    the ratio of their wall times is what tracing itself costs.
    """

    def one_pass(tracer: Tracer) -> Tuple[float, Dict[str, float], List[str]]:
        with Patches(tracer) as patches:
            _install_inner(patches)
            if isinstance(workload, RoutedJson):
                _routed_patches(patches)
                wall, metrics = _routed_pass(workload, tracer)
                metrics.update(_membership_probe(tracer))
            elif isinstance(workload, DurableFleetRW):
                wall, metrics = _durable_pass(workload, tracer, scratch)
            else:
                wall, metrics = _wire_pass(workload, tracer)
            return wall, metrics, list(patches.absent)

    plain_wall, _, _ = one_pass(Tracer(enabled=False))
    tracer = Tracer(enabled=True)
    traced_wall, metrics, absent = one_pass(tracer)
    if plain_wall:
        metrics["trace.overhead_pct"] = (traced_wall - plain_wall) / plain_wall * 100.0
    tracer.write_jsonl(trace_path)
    return {
        "metrics": metrics,
        "absent": absent,
        "spans": len(tracer.spans),
        "replay_wall_s": {"plain": plain_wall, "traced": traced_wall},
        "trace_file": trace_path,
    }
