"""The metric tables: what is gated end to end, and what each layer reports.

``BENCHMARK.json`` carries the names, units and directions (its schema
allows nothing more); this file adds, per layer metric, how it is
measured and which end-to-end metric on which workload it is expected
to move.  Anywhere not listed the prediction is *no change*.
``bench/tests/test_bench_smoke.py`` keeps the two in step.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, NamedTuple

#: name -> the one-line reason the workload exists (see README for the long form).
WORKLOADS = {
    "wire_sampled": (
        "batched binary lookups whose answers are RNG-sampled, so the reply cache "
        "is bypassed and decode, dispatch, sampling and encode do the work"
    ),
    "wire_cached": (
        "the same framing over 160 Zipf-ranked RNG-free keys that fit the reply "
        "cache, so cache probe, prepacked splice and writelines do the work"
    ),
    "routed_json": (
        "the paper's partial_lookup(k, t) through ShardRouter over two JSON shards: "
        "typed client, lookup session, shard map and JSON codec do the work"
    ),
    "durable_fleet_rw": (
        "half writes through a reader of a 2-worker append-log fleet: forward, "
        "journal, delta fan-out, cache invalidate/refill, compaction, recovery boots"
    ),
}
WORKLOAD_NAMES = tuple(WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    definition: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "spawn of the topology -> ready file -> connect -> hello -> one verified "
             "probe lookup; median of 5 consecutive boots (recovery boots on "
             "durable_fleet_rw)"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "upper quartile over complete 1-s windows of ops completed in the measured "
             "phase, at the workload's in-flight window"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "hand-to-socket -> verified reply of the frame (or lookup() call) carrying "
             "the op, loaded latency at the stated window: median per complete 1-s "
             "window, lower quartile of the windows"),
    EndToEnd("server_cpu_us_per_op", "us", "lower", 0.25,
             "delta(utime+stime) over every server process of the topology / ops "
             "completed, per ~1-s sampling interval of the measured phase; lower quartile"),
    EndToEnd("server_rss_mb", "MB", "lower", 0.05,
             "sum of VmHWM over the same processes at the end of the measured phase"),
]


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    measured_by: str
    moves: str


PER_LAYER: List[Layer] = [
    Layer("codec.decode_request_us", "us/op", "lower",
          "span: decode_frame_body on the binary batch pool",
          "server_cpu_us_per_op, ops_per_s on wire_sampled, wire_cached"),
    Layer("codec.encode_reply_us", "us/op", "lower",
          "span: encode_envelope_fragments on uncached handler output",
          "server_cpu_us_per_op, ops_per_s on wire_sampled"),
    Layer("codec.encode_reply_prepacked_us", "us/op", "lower",
          "span: the same call on cache-hit (Prepacked) output",
          "server_cpu_us_per_op, ops_per_s on wire_cached"),
    Layer("codec.json_decode_us", "us", "lower",
          "span: decode_envelope on routed_json traffic (per envelope)",
          "ops_per_s, server_cpu_us_per_op on routed_json"),
    Layer("codec.json_encode_us", "us", "lower",
          "span: encode_envelope on routed_json traffic (per envelope)",
          "ops_per_s, server_cpu_us_per_op on routed_json"),
    Layer("codec.request_bytes_per_op", "B/op", "lower",
          "exact: loadgen byte totals (routed_json: encoded envelope sizes in the replay)",
          "op_p50_ms on routed_json; explains the rest"),
    Layer("codec.reply_bytes_per_op", "B/op", "lower",
          "exact: loadgen byte totals (routed_json: encoded envelope sizes in the replay)",
          "op_p50_ms on routed_json; explains the rest"),
    Layer("cache.hit_rate", "ratio", "higher",
          "delta info.capabilities.cache hits/(hits+misses) around the measured phase",
          "ops_per_s on wire_cached (>= 0.99); no probes at all on wire_sampled"),
    Layer("cache.get_hit_us", "us", "lower", "span: ReplyCache.get returning a payload",
          "server_cpu_us_per_op on wire_cached"),
    Layer("cache.get_miss_us", "us", "lower", "span: ReplyCache.get returning None",
          "server_cpu_us_per_op on durable_fleet_rw"),
    Layer("cache.put_us", "us", "lower", "span: ReplyCache.put",
          "server_cpu_us_per_op on durable_fleet_rw"),
    Layer("cache.shared_get_us", "us", "lower", "span: SharedReplyCache.get",
          "server_cpu_us_per_op on durable_fleet_rw"),
    Layer("cache.shared_put_us", "us", "lower", "span: SharedReplyCache.put",
          "server_cpu_us_per_op on durable_fleet_rw"),
    Layer("cache.invalidations_per_write", "count", "lower",
          "exact: delta capabilities.cache.invalidations / writes sent",
          "ops_per_s on durable_fleet_rw"),
    Layer("cache.evictions", "count", "lower", "exact: delta capabilities.cache.evictions",
          "expected 0 everywhere (160 keys fit the 1024-entry cache)"),
    Layer("service.handle_lookup_miss_us", "us/op", "lower",
          "span: LookupService.handle_envelope(send, raw=True), uncached",
          "server_cpu_us_per_op on wire_sampled, durable_fleet_rw"),
    Layer("service.handle_lookup_hit_us", "us/op", "lower",
          "span: the same call on a cached shape after the fill",
          "server_cpu_us_per_op on wire_cached"),
    Layer("service.handle_batch_us_per_op", "us/op", "lower",
          "span: handle_envelope(batch of 16) / 16",
          "ops_per_s on wire_sampled, wire_cached"),
    Layer("service.handle_json_us", "us", "lower",
          "span: handle_envelope(send, raw=False) per contact",
          "server_cpu_us_per_op on routed_json"),
    Layer("service.dispatch_self_us", "us/op", "lower",
          "self time: handle_lookup_miss minus its child spans (answer_lookup, cache)",
          "server_cpu_us_per_op on wire_sampled"),
    Layer("service.boot_ms", "ms", "lower",
          "span: LookupService(ServiceConfig(entry_count=320))",
          "setup_s on wire_sampled, wire_cached, routed_json"),
    Layer("service.recover_ms", "ms", "lower",
          "span: the same constructor over a journaled data dir",
          "setup_s on durable_fleet_rw"),
    Layer("protocol_server.answer_lookup_us", "us", "lower", "span: answer_lookup",
          "server_cpu_us_per_op on wire_sampled; none on wire_cached"),
    Layer("core_storage.sample_us", "us", "lower", "span: MemoryBackend.sample",
          "server_cpu_us_per_op on wire_sampled"),
    Layer("core_storage.add_us", "us", "lower", "span: MemoryBackend.add",
          "ops_per_s on durable_fleet_rw"),
    Layer("core_storage.discard_us", "us", "lower", "span: MemoryBackend.discard",
          "ops_per_s on durable_fleet_rw"),
    Layer("lookup_session.pump_us", "us", "lower",
          "spans: LookupSession.start + on_event, summed per lookup",
          "ops_per_s, op_p50_ms on routed_json"),
    Layer("lookup_session.contacts_per_lookup", "count", "lower",
          "exact: mean LookupResult.messages",
          "op_p50_ms on routed_json"),
    Layer("client.cpu_us_per_op", "us", "lower", "loadgen process CPU / ops completed",
          "ops_per_s on routed_json (client-bound)"),
    Layer("client.contact_ms", "ms", "lower",
          "AsyncLookupClient.contact_server round trip, JSON, live shard",
          "op_p50_ms on routed_json"),
    Layer("sharding.home_us", "us", "lower",
          "span: ShardMap.home(key, 2), 2 shards x 21 probes",
          "op_p50_ms, ops_per_s on routed_json (paid per lookup)"),
    Layer("membership.view_refresh_ms", "ms", "lower",
          "ShardRouter.membership_view(refresh=True), live shards",
          "tail only on routed_json (once per view_ttl)"),
    Layer("membership.tick_us_10", "us", "lower",
          "span: MembershipProtocol.on_event(ClockTick) at 10 peers",
          "server_cpu_us_per_op on routed_json (background)"),
    Layer("membership.tick_us_100", "us", "lower",
          "span: the same at 100 peers",
          "server_cpu_us_per_op on routed_json (background)"),
    Layer("workers.compute_apply_delta_us", "us", "lower",
          "span: compute_apply_delta(writer_service, envelope) per write",
          "ops_per_s, op_p50_ms on durable_fleet_rw"),
    Layer("workers.apply_delta_us", "us", "lower", "span: apply_delta on a reader service",
          "ops_per_s, op_p50_ms on durable_fleet_rw"),
    Layer("workers.delta_offer_us", "us", "lower", "span: DeltaApplier.offer",
          "ops_per_s, op_p50_ms on durable_fleet_rw"),
    Layer("workers.delta_json_bytes", "B", "lower", "exact: JSON size of each delta",
          "ops_per_s on durable_fleet_rw"),
    Layer("workers.snapshot_ms", "ms", "lower", "span: snapshot_stores at 2000 entries",
          "setup_s on durable_fleet_rw (reader resync)"),
    Layer("workers.load_snapshot_ms", "ms", "lower", "span: load_snapshot at 2000 entries",
          "setup_s on durable_fleet_rw (reader resync)"),
    Layer("workers.write_rtt_ms", "ms", "lower",
          "loadgen: single un-batched write frames through a reader, window 1",
          "op_p50_ms on durable_fleet_rw"),
    Layer("workers.read_after_write_ms", "ms", "lower",
          "loadgen: the full-store read that follows each such write",
          "op_p50_ms on durable_fleet_rw"),
    Layer("appendlog.append_us", "us", "lower", "span: AppendLogJournal.append per record",
          "ops_per_s, server_cpu_us_per_op on durable_fleet_rw"),
    Layer("appendlog.records_per_write", "count", "lower",
          "exact: journal records appended per mutation in the replay",
          "ops_per_s on durable_fleet_rw"),
    Layer("appendlog.bytes_per_write", "B", "lower",
          "exact: journal bytes appended per mutation in the replay",
          "ops_per_s on durable_fleet_rw"),
    Layer("appendlog.load_us_per_record", "us", "lower",
          "span: AppendLogJournal.load() / records, over the replay's journal",
          "setup_s on durable_fleet_rw"),
    Layer("appendlog.compact_ms", "ms", "lower", "span: LookupService.compact_journal()",
          "ops_per_s and tail on durable_fleet_rw"),
    Layer("appendlog.compactions", "count", "lower",
          "exact: delta capabilities.storage.compactions on the writer",
          "tail on durable_fleet_rw"),
    Layer("appendlog.data_dir_mb", "MB", "lower", "data dir size at the end of the phase",
          "setup_s on durable_fleet_rw"),
    Layer("loadgen.op_p99_ms", "ms", "lower",
          "p99 of per-op latency (reported from 1000 samples up)", "ungated tail"),
    Layer("loadgen.op_p999_ms", "ms", "lower",
          "p99.9 of per-op latency (reported from 10000 samples up)", "ungated tail"),
    Layer("loadgen.paced_p50_ms", "ms", "lower",
          "open loop at a frozen rate, timed from the intended send time",
          "ungated diagnostic"),
    Layer("loadgen.paced_p99_ms", "ms", "lower", "the same, p99", "ungated diagnostic"),
    Layer("loadgen.paced_late_p99_ms", "ms", "lower",
          "p99 of how late the generator sent", "validity of the paced figures"),
    Layer("loadgen.cpu_share", "ratio", "lower", "loadgen CPU / wall in the measured phase",
          "validity: >= 0.95 on wire_* means the generator set ops_per_s"),
    Layer("loadgen.window_cv", "ratio", "lower",
          "coefficient of variation of the 1-s windows", "validity of ops_per_s"),
    Layer("trace.overhead_pct", "%", "lower",
          "replay wall time with spans on vs off",
          "bounds what the span figures can be trusted to"),
]


def contract(run_seconds: int = 20) -> Dict[str, Any]:
    """``BENCHMARK.json``'s content, generated from the tables above."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": layer.name, "unit": layer.unit, "better": layer.better}
            for layer in PER_LAYER
        ],
    }


if __name__ == "__main__":  # python3 bench/layers.py > BENCHMARK.json
    print(json.dumps(contract(), indent=2))
