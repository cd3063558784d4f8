"""Worker-fleet machinery: delta fan-out ordering, resync, forwarding.

Most of the fleet is testable without forking: the delta computation /
application pair and the :class:`DeltaApplier` ordering contract are
sans-IO, and the writer bus + forwarder run in-process on a Unix
socket.  The end-to-end tests boot a real 2-worker fleet through the
CLI supervisor with :class:`~repro.chaos.process.ServeProcess`.
"""

import asyncio
import dataclasses
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import time
import types

import pytest

from repro.chaos.process import ServeProcess
from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest, PlaceRequest
from repro.core.entry import Entry
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_envelope_binary,
    decode_frame_body,
    decode_value,
    encode_envelope,
    encode_envelope_as,
    encode_message,
    read_frame,
    write_frame,
)
from repro.net.service import LookupService, ServiceConfig, envelope_mutates
from repro.net.workers import (
    DELTA_HISTORY,
    DeltaApplier,
    WriteForwarder,
    WriterBus,
    apply_delta,
    compute_apply_delta,
    load_snapshot,
    _Supervisor,
    run_worker_fleet,
    snapshot_stores,
    wire_envelope,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


CONFIG = ServiceConfig(server_count=8, entry_count=12, seed=3)


def _send(key, message, server=0):
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": encode_message(message),
    }


def _masks(service, key):
    return [server.store(key).mask for server in service.cluster.servers]


async def _forward(forwarder, envelope):
    """One write through ``forwarder``'s batch ``forward``; its reply."""
    replies = []
    await forwarder.forward([envelope], lambda reply, current: replies.append(reply))
    (reply,) = replies
    return reply


class TestEnvelopeClassification:
    def test_lookups_do_not_mutate(self):
        assert not envelope_mutates(_send("hash", LookupRequest(3)))

    def test_adds_and_deletes_mutate(self):
        assert envelope_mutates(_send("hash", AddRequest(entry=Entry("zz"))))
        assert envelope_mutates(_send("hash", DeleteRequest(entry=Entry("v1"))))

    def test_live_message_instances_classify_too(self):
        # binary connections decode to Message instances before dispatch
        env = _send("hash", LookupRequest(3))
        env["message"] = LookupRequest(3)
        assert not envelope_mutates(env)
        env["message"] = AddRequest(entry=Entry("zz"))
        assert envelope_mutates(env)

    def test_control_ops_never_mutate(self):
        for op in ("ping", "info", "verify", "membership", "hello", "batch"):
            assert not envelope_mutates({"op": op})

    def test_wire_envelope_reencodes_live_messages(self):
        env = _send("hash", LookupRequest(3))
        env["message"] = AddRequest(entry=Entry("zz"))
        wired = wire_envelope(env)
        assert isinstance(wired["message"], dict)
        assert env["message"].__class__ is AddRequest  # original untouched


class TestDeltaRoundTrip:
    def test_add_delta_converges_a_reader(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        reply, delta = compute_apply_delta(
            writer, _send("full_replication", AddRequest(entry=Entry("zz-new")))
        )
        assert reply["ok"] and delta is not None
        assert delta["key"] == "full_replication"
        apply_delta(reader, delta)
        for key in writer.strategies:
            assert _masks(reader, key) == _masks(writer, key)

    def test_delete_delta_converges_a_reader(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        _, delta = compute_apply_delta(
            writer, _send("full_replication", DeleteRequest(entry=Entry("v1")))
        )
        assert delta is not None
        apply_delta(reader, delta)
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_noop_mutation_yields_no_delta(self):
        writer = LookupService(CONFIG)
        # deleting an entry that is not there changes no store
        _, delta = compute_apply_delta(
            writer, _send("full_replication", DeleteRequest(entry=Entry("zz-nope")))
        )
        assert delta is None

    def test_lookup_yields_no_delta(self):
        writer = LookupService(CONFIG)
        reply, delta = compute_apply_delta(
            writer, _send("round_robin", LookupRequest(0))
        )
        assert reply["ok"] and delta is None

    def test_snapshot_round_trip(self):
        writer = LookupService(CONFIG)
        writer.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("zz-snap")))
        )
        reader = LookupService(CONFIG)
        load_snapshot(reader, snapshot_stores(writer))
        for key in writer.strategies:
            assert _masks(reader, key) == _masks(writer, key)

    def test_delta_application_invalidates_the_reply_cache(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        lookup = _send("full_replication", LookupRequest(0))
        reader.handle_envelope(dict(lookup))
        reader.handle_envelope(dict(lookup))
        assert reader.reply_cache.hits == 1
        _, delta = compute_apply_delta(
            writer, _send("full_replication", AddRequest(entry=Entry("zz-inv")))
        )
        apply_delta(reader, delta)
        after = reader.handle_envelope(dict(lookup))
        assert "zz-inv" in {e.entry_id for e in decode_value(after["value"])}


def _write_script(seed, steps=300):
    """A seeded add/delete script: fresh adds, deletes, and re-adds of
    deleted entries, which land below the tail of every store."""
    rng = random.Random(seed)
    live = [f"v{i}" for i in range(1, CONFIG.entry_count + 1)]
    gone = []
    fresh = CONFIG.entry_count
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4 and live:
            entry_id = live.pop(rng.randrange(len(live)))
            gone.append(entry_id)
            message = DeleteRequest(entry=Entry(entry_id))
        else:
            if roll < 0.7 and gone:
                entry_id = gone.pop(rng.randrange(len(gone)))
            else:
                fresh += 1
                entry_id = f"v{fresh}"
            live.append(entry_id)
            message = AddRequest(entry=Entry(entry_id))
        yield message, rng.randrange(CONFIG.server_count)


def _lookup_all_bytes(service, key, sid):
    reply = service.handle_envelope(_send(key, LookupRequest(0), sid), raw=True)
    return encode_envelope_as(reply, CODEC_BINARY)


def _assert_same_stores(reader, writer, key, where):
    for sid, (mine, theirs) in enumerate(
        zip(reader.cluster.servers, writer.cluster.servers)
    ):
        assert mine.store(key).indices() == theirs.store(key).indices(), (where, sid)
        assert _lookup_all_bytes(reader, key, sid) == _lookup_all_bytes(
            writer, key, sid
        ), (where, sid)


SCHEMES = ["full_replication", "fixed", "random_server", "round_robin", "hash"]


class TestReaderMatchesWriter:
    """A store is its set, in ascending dense index, so a reader that
    took the writer's deltas — or its snapshot, or its journal — answers
    a whole-store lookup with the writer's bytes."""

    def _follow(self, key, tmp_path, script, fresh_at=None):
        """Run ``script`` on a durable writer, a reader following its
        deltas alongside; at step ``fresh_at`` the reader is replaced by
        a fresh one resynced from the writer's snapshot.  Ends with a
        journal recovery, held to the same bytes."""
        durable = dataclasses.replace(CONFIG, store="log", data_dir=str(tmp_path))
        writer = LookupService(durable)
        reader = LookupService(CONFIG)
        for step, (message, sid) in enumerate(script):
            if step == fresh_at:
                reader = LookupService(CONFIG)
                load_snapshot(reader, snapshot_stores(writer))
                _assert_same_stores(reader, writer, key, ("fresh resync", step))
            reply, delta = compute_apply_delta(writer, _send(key, message, sid))
            assert reply["ok"], reply
            if delta is not None:
                apply_delta(reader, delta)
            _assert_same_stores(reader, writer, key, ("delta", step))
            if fresh_at is None and step % 100 == 99:
                load_snapshot(reader, snapshot_stores(writer))
                _assert_same_stores(reader, writer, key, ("resync", step))
        recovered = LookupService(dataclasses.replace(durable, store_read_only=True))
        assert recovered.recovered
        _assert_same_stores(recovered, writer, key, "recovery")
        return writer, reader

    @pytest.mark.parametrize("key", SCHEMES)
    def test_deltas_resync_and_recovery_keep_reader_equal_to_writer(
        self, key, tmp_path
    ):
        self._follow(key, tmp_path, _write_script(seed=27))

    @pytest.mark.parametrize("key", SCHEMES)
    def test_a_fresh_reader_resynced_mid_script_then_follows_deltas(
        self, key, tmp_path
    ):
        # The snapshot carries the writer's interner order, entries
        # deleted everywhere before it included, so the fresh reader
        # lists every store in the writer's order and takes the deltas
        # that follow at the writer's indices.
        self._follow(key, tmp_path, _write_script(seed=27), fresh_at=150)

    @pytest.mark.parametrize("key", SCHEMES)
    def test_a_multi_entry_place_lands_in_the_writers_order(self, key, tmp_path):
        entries = tuple(Entry(f"p{n}") for n in range(20, 0, -1))
        script = [(DeleteRequest(entry=Entry("v3")), 1), (PlaceRequest(entries), 2)]
        self._follow(key, tmp_path, script)

    @pytest.mark.parametrize("key", SCHEMES)
    def test_a_re_add_serves_its_own_payload(self, key, tmp_path):
        script = [
            (AddRequest(entry=Entry("zz", "A")), 3),
            (DeleteRequest(entry=Entry("zz")), 3),
            (AddRequest(entry=Entry("zz", "B")), 3),
            (AddRequest(entry=Entry("zy")), 5),
        ]
        writer, reader = self._follow(key, tmp_path, script)
        held = {
            e.payload
            for service in (writer, reader)
            for server in service.cluster.servers
            for e in server.store(key)
            if e.entry_id == "zz"
        }
        assert held <= {"B"}  # Fixed-x may hold it nowhere
        assert held or key == "fixed"

    @pytest.mark.parametrize("key", SCHEMES)
    def test_a_place_that_swaps_a_held_payload_reaches_the_reader(
        self, key, tmp_path
    ):
        # RandomServer-x's place clears each store and adds the chosen
        # entries back: "zz" keeps its bit but changes its payload.
        script = [
            (AddRequest(entry=Entry("zz", "A")), 3),
            (PlaceRequest((Entry("zz", "B"), Entry("v4"))), 2),
        ]
        writer, _ = self._follow(key, tmp_path, script)
        if key == "random_server":
            assert {
                e.payload
                for server in writer.cluster.servers
                for e in server.store(key)
                if e.entry_id == "zz"
            } == {"B"}


class TestDeltaApplierOrdering:
    def _delta(self, writer, epoch, entry_id):
        _, delta = compute_apply_delta(
            writer, _send("full_replication", AddRequest(entry=Entry(entry_id)))
        )
        delta["epoch"] = epoch
        return delta

    def test_in_order_application(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        for epoch in (1, 2, 3):
            delta = self._delta(writer, epoch, f"zz-{epoch}")
            assert applier.offer(delta) == "applied"
        assert applier.applied == 3
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_out_of_order_delta_requests_resync(self):
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        untouched = _masks(reader, "full_replication")
        applier = DeltaApplier(reader)
        deltas = [self._delta(writer, n, f"zz-{n}") for n in (1, 2, 3)]
        # the pipe is FIFO: a delta from the future means one was lost
        assert applier.offer(deltas[2]) == "resync"
        assert applier.applied == 0
        assert _masks(reader, "full_replication") == untouched
        # nothing was kept: the sequence applies only from its start
        assert [applier.offer(delta) for delta in deltas] == ["applied"] * 3
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_duplicate_delivery_is_dropped(self):
        # a recovered reader hears epochs its journal already replayed
        writer = LookupService(CONFIG)
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        d1 = self._delta(writer, 1, "zz-dup")
        assert applier.offer(d1) == "applied"
        assert applier.offer(d1) == "duplicate"
        assert applier.applied == 1

    def test_unbridgeable_gap_requests_resync(self):
        # every gap is unbridgeable: however many future deltas follow,
        # each one reports "resync" and the watermark stays put
        applier = DeltaApplier(LookupService(CONFIG))
        for epoch in range(1000, 1000 + DELTA_HISTORY + 2):
            assert (
                applier.offer({"epoch": epoch, "key": "hash", "servers": {}})
                == "resync"
            )
        assert applier.applied == 0

    def test_resync_adopts_snapshot_and_watermark(self):
        writer = LookupService(CONFIG)
        writer.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("zz-sync")))
        )
        reader = LookupService(CONFIG)
        applier = DeltaApplier(reader)
        assert applier.offer({"epoch": 50, "key": "hash", "servers": {}}) == "resync"
        applier.resync(41, snapshot_stores(writer))
        assert applier.applied == 41
        assert _masks(reader, "full_replication") == _masks(
            writer, "full_replication"
        )
        # epochs at or below the snapshot are now duplicates, the next
        # one applies
        assert applier.offer({"epoch": 41, "key": "hash", "servers": {}}) == (
            "duplicate"
        )
        assert applier.offer({"epoch": 42, "key": "hash", "servers": {}}) == (
            "applied"
        )

    def test_malformed_epoch_requests_resync(self):
        applier = DeltaApplier(LookupService(CONFIG))
        assert applier.offer({"key": "hash", "servers": {}}) == "resync"


class TestWriterBusAndForwarder:
    """The real bus + forwarder pair over a Unix socket, in-process."""

    def _bus_path(self, tmp):
        return os.path.join(tmp, "bus.sock")

    def test_forwarded_mutation_reaches_writer_and_reader(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                fwd = WriteForwarder(reader_svc, self._bus_path(tmp))
                await fwd.start()
                try:
                    reply = await _forward(
                        fwd,
                        _send("full_replication", AddRequest(entry=Entry("zz-f")))
                    )
                    assert reply["ok"]
                    # read-your-writes: the reader converged before the
                    # forward() call returned
                    assert _masks(reader_svc, "full_replication") == _masks(
                        writer_svc, "full_replication"
                    )
                finally:
                    await fwd.stop()
                    await bus.stop()

        run(scenario())

    def test_broadcast_reaches_non_forwarding_readers(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_a = LookupService(CONFIG)
                reader_b = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                fwd_a = WriteForwarder(reader_a, self._bus_path(tmp))
                fwd_b = WriteForwarder(reader_b, self._bus_path(tmp))
                await fwd_a.start()
                await fwd_b.start()
                try:
                    await _forward(
                        fwd_a,
                        _send("full_replication", AddRequest(entry=Entry("zz-b")))
                    )
                    # b hears about it via broadcast, asynchronously
                    deadline = asyncio.get_running_loop().time() + 5
                    while asyncio.get_running_loop().time() < deadline:
                        if _masks(reader_b, "full_replication") == _masks(
                            writer_svc, "full_replication"
                        ):
                            break
                        await asyncio.sleep(0.01)
                    assert _masks(reader_b, "full_replication") == _masks(
                        writer_svc, "full_replication"
                    )
                finally:
                    await fwd_a.stop()
                    await fwd_b.stop()
                    await bus.stop()

        run(scenario())

    def test_writers_own_mutations_fan_out_via_forward(self):
        # worker 0's service sets forwarder = bus: a mutation landing
        # on the writer itself must still reach every reader
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                writer_svc.forwarder = bus
                fwd = WriteForwarder(reader_svc, self._bus_path(tmp))
                await fwd.start()
                host, port = await writer_svc.start(port=0)
                client_r, client_w = await asyncio.open_connection(host, port)
                try:
                    await write_frame(
                        client_w,
                        _send("full_replication", AddRequest(entry=Entry("zz-w"))),
                    )
                    reply = await read_frame(client_r)
                    assert reply["ok"]
                    deadline = asyncio.get_running_loop().time() + 5
                    while asyncio.get_running_loop().time() < deadline:
                        if _masks(reader_svc, "full_replication") == _masks(
                            writer_svc, "full_replication"
                        ):
                            break
                        await asyncio.sleep(0.01)
                    assert _masks(reader_svc, "full_replication") == _masks(
                        writer_svc, "full_replication"
                    )
                finally:
                    client_w.close()
                    await writer_svc.stop()
                    await fwd.stop()
                    await bus.stop()

        run(scenario())

    def test_reconnect_resyncs_missed_state(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                # mutations happen while no reader is connected
                await _forward(
                    bus,
                    _send("full_replication", AddRequest(entry=Entry("zz-r1")))
                )
                await _forward(
                    bus,
                    _send("full_replication", AddRequest(entry=Entry("zz-r2")))
                )
                late = LookupService(CONFIG)
                fwd = WriteForwarder(late, self._bus_path(tmp))
                await fwd.start()  # sync-on-connect
                try:
                    assert fwd.applier.applied == bus.epoch
                    for key in writer_svc.strategies:
                        assert _masks(late, key) == _masks(writer_svc, key)
                finally:
                    await fwd.stop()
                    await bus.stop()

        run(scenario())

    def test_bus_loss_fires_on_fatal_and_fails_pending(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                writer_svc = LookupService(CONFIG)
                reader_svc = LookupService(CONFIG)
                bus = WriterBus(writer_svc, self._bus_path(tmp))
                await bus.start()
                fwd = WriteForwarder(reader_svc, self._bus_path(tmp))
                fatal = asyncio.Event()
                fwd.on_fatal = fatal.set
                await fwd.start()
                try:
                    await bus.stop()  # the writer dies
                    await asyncio.wait_for(fatal.wait(), timeout=5)
                finally:
                    await fwd.stop()

        run(scenario())


class _PipeWriter:
    """A bus connection's write half, captured instead of sent.

    ``drain`` yields to the loop, so every flow-control point is a
    place where other tasks really do run in between.
    """

    def __init__(self):
        self.frames = []

    def write(self, data):
        while data:  # one write may carry several frames
            end = 4 + int.from_bytes(data[:4], "big")
            self.frames.append(decode_frame_body(data[4:end]))
            data = data[end:]

    async def drain(self):
        await asyncio.sleep(0)

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _add(entry_id):
    return _send("full_replication", AddRequest(entry=Entry(entry_id)))


class TestWriterBusOrdering:
    """The FIFO contract of the writer pipe, sans socket: each reader's
    frames are fed straight into `WriterBus._serve`, its replies land
    in a list."""

    def test_each_connection_carries_gap_free_epochs(self):
        async def scenario():
            bus = WriterBus(LookupService(CONFIG), "unused.sock")
            conns = {"a": _PipeWriter(), "b": _PipeWriter()}
            # both readers are connected before the first write lands
            bus._conns.update(conns.values())
            tasks = []
            for tag, conn in conns.items():
                inbox = asyncio.StreamReader()
                for n in range(6):
                    inbox.feed_data(
                        encode_envelope(
                            {"op": "fwd", "id": n, "envelopes": [_add(f"zz-{tag}{n}")]}
                        )
                    )
                    if n == 2:
                        # a write that changes nothing, and a sync
                        inbox.feed_data(
                            encode_envelope(
                                {
                                    "op": "fwd",
                                    "id": 100,
                                    "envelopes": [_send(
                                        "full_replication",
                                        DeleteRequest(entry=Entry("zz-nope")),
                                    )],
                                }
                            )
                        )
                        inbox.feed_data(encode_envelope({"op": "sync", "id": 101}))
                tasks.append((inbox, asyncio.create_task(bus._serve(inbox, conn))))
            # the writer's own clients mutate in between
            for n in range(6):
                assert (await _forward(bus, _add(f"zz-w{n}")))["ok"]
            while bus.epoch < 18:
                await asyncio.sleep(0)
            for inbox, task in tasks:
                inbox.feed_eof()
                await task
            return conns

        for conn in run(scenario()).values():
            seen = 0
            replies = []
            for frame in conn.frames:
                if frame["op"] == "sync_reply":
                    # the snapshot sits where its epoch does in the log
                    assert frame["epoch"] == seen
                    continue
                if frame["op"] == "fwd_reply":
                    replies.append(frame["id"])
                    if "delta" not in frame:
                        continue
                else:
                    assert frame["op"] == "delta"
                # a delta, broadcast or riding on a reply: the next epoch
                assert frame["delta"]["epoch"] == seen + 1
                seen += 1
            assert seen == 18
            assert replies == [0, 1, 2, 100, 3, 4, 5]

    def test_a_forwarded_read_is_refused_and_the_pipe_stays_framed(self):
        # A lookup's JSON reply is spliced text; the bus frame that would
        # carry it cannot be encoded, so the writer refuses the read.
        bus = WriterBus(LookupService(CONFIG), "unused.sock")
        origin = _PipeWriter()
        for envelope in (_send("fixed", LookupRequest(0)), {"op": "ping"}):
            bus._handle({"op": "fwd", "id": 3, "envelopes": [envelope]}, origin)
        assert [f["reply"]["error"] for f in origin.frames] == ["bad-request"] * 2
        assert bus.epoch == 0

    def test_delta_skips_only_the_originating_connection(self):
        bus = WriterBus(LookupService(CONFIG), "unused.sock")
        origin, other = _PipeWriter(), _PipeWriter()
        bus._conns.update((origin, other))
        bus._handle({"op": "fwd", "id": 7, "envelopes": [_add("zz-o")]}, origin)
        assert [f["op"] for f in origin.frames] == ["fwd_reply"]
        assert [f["op"] for f in other.frames] == ["delta"]
        assert origin.frames[0]["delta"] == other.frames[0]["delta"]


def _pipelined_write_between_reads(host, port):
    """On a fleet reader: a lookup, a forwarded add and a lookup sent in
    one chunk come back in request order, the second lookup seeing the add."""
    frames = [
        encode_envelope_as(dict(_send("full_replication", message), id=n), CODEC_JSON)
        for n, message in enumerate(
            (LookupRequest(0), AddRequest(entry=Entry("zz-pipe")), LookupRequest(0))
        )
    ]
    for _ in range(64):  # SO_REUSEPORT picks the worker; find a reader
        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rb")
            sock.sendall(encode_envelope_as({"op": "info"}, CODEC_JSON))
            if _read_body(stream)["value"]["capabilities"]["workers"]["role"] != "reader":
                continue
            sock.sendall(b"".join(frames))
            replies = [_read_body(stream) for _ in frames]
            break
    else:
        pytest.fail("no connection reached the reader")
    assert [reply["id"] for reply in replies] == [0, 1, 2]
    seen = [{e.entry_id for e in decode_value(replies[i]["value"])} for i in (0, 2)]
    assert "zz-pipe" not in seen[0] and "zz-pipe" in seen[1]


def _read_body(stream):
    (length,) = struct.unpack(">I", stream.read(4))
    return decode_frame_body(stream.read(length))


def _pumped_forwarder(service=None):
    """A forwarder whose pump runs with no socket: frames are fed
    straight into its stream reader, requests land in a list."""
    fwd = WriteForwarder(service or LookupService(CONFIG), "unused.sock")
    fwd._reader = asyncio.StreamReader()
    fwd._writer = _PipeWriter()
    fwd.fatal = []
    fwd.on_fatal = lambda: fwd.fatal.append(True)
    fwd._pump_task = asyncio.create_task(fwd._pump())
    return fwd


def _bus_fed_forwarder(reader, writer):
    """A `_pumped_forwarder` on ``reader`` whose requests a real
    `WriterBus` on ``writer`` answers as they are written, its replies
    fed back to the pump."""
    fwd = _pumped_forwarder(reader)
    bus = WriterBus(writer, "unused.sock")
    origin = types.SimpleNamespace(write=fwd._reader.feed_data)
    pipe = fwd._writer

    def write(data):
        _PipeWriter.write(pipe, data)
        bus._handle(pipe.frames[-1], origin)

    pipe.write = write
    return fwd


def _wire(reply):
    """A reply as a JSON client reads it."""
    return decode_frame_body(encode_envelope_as(reply, CODEC_JSON)[4:])


def _ids(sub):
    return {entry.entry_id for entry in decode_value(sub["value"])}


def _feed(fwd, **frame):
    fwd._reader.feed_data(encode_envelope(frame))


def _empty(epoch):
    return {"epoch": epoch, "key": "hash", "servers": {}}


async def _settle():
    for _ in range(5):
        await asyncio.sleep(0)


class TestPumpOrdering:
    """`WriteForwarder._pump` is the one applier: what a frame carries
    is applied in arrival order, before the request it answers."""

    def test_reply_delta_applies_in_order_before_it_resolves(self):
        async def scenario():
            writer = LookupService(CONFIG)
            deltas = []
            for epoch in (1, 2, 3):
                _, delta = compute_apply_delta(writer, _add(f"zz-{epoch}"))
                deltas.append(dict(delta, epoch=epoch))
            reader = LookupService(CONFIG)
            fwd = _pumped_forwarder(reader)
            resolved_at = []
            resolve = fwd._resolve
            fwd._resolve = lambda frame: (
                resolved_at.append(fwd.applier.applied),
                resolve(frame),
            )
            try:
                forward = asyncio.create_task(_forward(fwd, _add("zz-2")))
                await _settle()
                (request,) = fwd._writer.frames
                assert request["op"] == "fwd"
                # back to back: a broadcast, the reply to our own write,
                # another broadcast
                _feed(fwd, op="delta", delta=deltas[0])
                _feed(
                    fwd,
                    op="fwd_reply",
                    id=request["id"],
                    reply={"ok": True, "value": None},
                    delta=deltas[1],
                )
                _feed(fwd, op="delta", delta=deltas[2])
                assert (await forward)["ok"]
                assert resolved_at == [2]
                assert fwd.applier.applied == 3
                assert _masks(reader, "full_replication") == _masks(
                    writer, "full_replication"
                )
                assert len(fwd._writer.frames) == 1  # no sync was sent
                assert not fwd.fatal
            finally:
                await fwd.stop()

        run(scenario())


class TestOneForwardPerBatch:
    """A fleet reader's batch reaches the writer as one ``fwd`` frame,
    and each read is answered as the write before it lands."""

    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_a_batch_forwards_its_writes_in_one_frame(self, codec):
        def batch():
            messages = []
            for entry in (Entry("zz-x"), Entry("zz-y")):
                messages += [AddRequest(entry), LookupRequest(0), DeleteRequest(entry),
                             LookupRequest(0)]
            return {"op": "batch", "requests": [
                dict(_send("full_replication", message), id=n,
                     message=message if codec == CODEC_BINARY else encode_message(message))
                for n, message in enumerate(messages)
            ]}

        raw = codec == CODEC_BINARY
        expected = LookupService(CONFIG).handle_envelope(batch(), raw=raw)

        async def scenario():
            reader = LookupService(CONFIG)
            fwd = _bus_fed_forwarder(reader, LookupService(CONFIG))
            try:
                return fwd._writer.frames, await reader._handle_batch(batch(), raw, fwd)
            finally:
                await fwd.stop()

        frames, reply = run(scenario())
        (frame,) = frames
        assert frame["op"] == "fwd" and len(frame["envelopes"]) == 4
        body = encode_envelope_as(reply, codec)
        assert body == encode_envelope_as(expected, codec)
        subs = decode_frame_body(body[4:])["value"]
        assert all(sub["ok"] for sub in subs)
        for n in (0, 4):
            entry = "zz-x" if n == 0 else "zz-y"
            assert entry in _ids(subs[n + 1]) and entry not in _ids(subs[n + 3])


class TestPumpResync:
    """`WriteForwarder._pump` gap recovery and failure, sans socket."""

    def test_one_resync_in_flight_and_failure_is_fatal(self):
        async def scenario():
            fwd = _pumped_forwarder()
            pipe = fwd._writer
            try:
                # a gap, then more deltas behind it: one sync request,
                # and nothing applies while its reply is on the way
                for epoch in (5, 6, 7, 8):
                    _feed(fwd, op="delta", delta=_empty(epoch))
                await _settle()
                assert [frame["op"] for frame in pipe.frames] == ["sync"]
                assert pipe.frames[0]["since"] == 0
                assert fwd.applier.applied == 0
                _feed(
                    fwd, op="sync_reply", id=pipe.frames[0]["id"], epoch=8, stores={}
                )
                # deltas behind the snapshot apply again
                _feed(fwd, op="delta", delta=_empty(9))
                await _settle()
                assert fwd.applier.applied == 9
                assert len(pipe.frames) == 1 and not fwd.fatal

                # a later gap syncs anew, and a snapshot that cannot be
                # adopted fails the reader instead of vanishing into an
                # unobserved task exception
                _feed(fwd, op="delta", delta=_empty(20))
                await _settle()
                assert [frame["op"] for frame in pipe.frames] == ["sync", "sync"]
                assert pipe.frames[1]["since"] == 9
                _feed(
                    fwd,
                    op="sync_reply",
                    id=pipe.frames[1]["id"],
                    epoch=30,
                    stores={"hash": 7},
                )
                await _settle()
                assert fwd.fatal == [True]
                assert fwd.applier.applied == 9
                assert fwd._pump_task.done()
                assert fwd._pump_task.exception() is None
            finally:
                await fwd.stop()

        run(scenario())

    def test_forward_reply_waits_for_the_sync_in_flight(self):
        async def scenario():
            fwd = _pumped_forwarder()
            pipe = fwd._writer
            try:
                forward = asyncio.create_task(_forward(fwd, _add("zz-held")))
                await _settle()
                _feed(fwd, op="delta", delta=_empty(5))  # a gap
                # our write's reply overtakes the snapshot that holds it:
                # resolving now would let the client read its write away
                _feed(
                    fwd,
                    op="fwd_reply",
                    id=pipe.frames[0]["id"],
                    reply={"ok": True, "value": None},
                    delta=_empty(6),
                )
                await _settle()
                assert [frame["op"] for frame in pipe.frames] == ["fwd", "sync"]
                assert not forward.done()
                _feed(
                    fwd, op="sync_reply", id=pipe.frames[1]["id"], epoch=6, stores={}
                )
                assert (await forward)["ok"]
                assert fwd.applier.applied == 6
            finally:
                await fwd.stop()

        run(scenario())

    def test_a_resync_mid_batch_answers_each_read_honestly(self):
        async def scenario():
            writer = LookupService(CONFIG)
            deltas = [
                dict(compute_apply_delta(writer, _add(entry))[1], epoch=epoch)
                for epoch, entry in ((6, "zz-m1"), (7, "zz-m2"))
            ]
            fwd = _pumped_forwarder()
            pipe = fwd._writer
            lookup = _send("full_replication", LookupRequest(0))
            batch = {"op": "batch", "requests": [
                dict(lookup, id=1), dict(_add("zz-m1"), id=2), dict(lookup, id=3),
                dict(_add("zz-m2"), id=4), dict(lookup, id=5),
            ]}
            try:
                task = asyncio.create_task(fwd.service._handle_batch(batch, False, fwd))
                await _settle()
                (request,) = pipe.frames
                assert len(request["envelopes"]) == 2
                _feed(fwd, op="delta", delta=_empty(5))  # a gap
                for delta in deltas:
                    _feed(fwd, op="fwd_reply", id=request["id"],
                          reply={"ok": True, "value": True}, delta=delta)
                await _settle()
                assert [frame["op"] for frame in pipe.frames] == ["fwd", "sync"]
                assert not task.done()
                # The snapshot holds both writes of the batch.
                _feed(fwd, op="sync_reply", id=pipe.frames[1]["id"], epoch=7,
                      stores=snapshot_stores(writer))
                return _wire(await task)["value"], fwd.applier.applied
            finally:
                await fwd.stop()

        subs, applied = run(scenario())
        assert applied == 7
        assert [sub["id"] for sub in subs] == [1, 2, 3, 4, 5]
        assert subs[1]["ok"] and subs[3]["ok"]
        assert not {"zz-m1", "zz-m2"} & _ids(subs[0])
        # Between the writes: the adopted state already holds the second.
        assert subs[2] == {"ok": False, "error": "unavailable",
                           "detail": "writer pipe resynced mid-batch", "id": 3}
        assert {"zz-m1", "zz-m2"} <= _ids(subs[4])

    def test_a_bus_lost_mid_batch_answers_the_rest_locally(self):
        async def scenario():
            _, delta = compute_apply_delta(LookupService(CONFIG), _add("zz-d1"))
            fwd = _pumped_forwarder()
            lookup = _send("full_replication", LookupRequest(0))
            batch = {"op": "batch", "requests": [
                dict(_add("zz-d1"), id=1), dict(lookup, id=2),
                dict(_add("zz-d2"), id=3), dict(lookup, id=4),
            ]}
            try:
                task = asyncio.create_task(fwd.service._handle_batch(batch, False, fwd))
                await _settle()
                (request,) = fwd._writer.frames
                _feed(fwd, op="fwd_reply", id=request["id"],
                      reply={"ok": True, "value": True}, delta=dict(delta, epoch=1))
                fwd._reader.feed_eof()  # the writer dies after its first reply
                return _wire(await task)["value"], fwd.fatal
            finally:
                await fwd.stop()

        subs, fatal = run(scenario())
        assert fatal == [True]
        assert [sub["id"] for sub in subs] == [1, 2, 3, 4]
        assert subs[0]["ok"] and "zz-d1" in _ids(subs[1])
        assert subs[2]["error"] == "unavailable"
        assert "writer worker unreachable" in subs[2]["detail"]
        assert "zz-d1" in _ids(subs[3]) and "zz-d2" not in _ids(subs[3])

    def test_a_delta_that_cannot_apply_is_fatal(self):
        async def scenario():
            fwd = _pumped_forwarder()
            try:
                forward = asyncio.create_task(_forward(fwd, _add("zz-lost")))
                await _settle()
                bad = {"epoch": 1, "key": "hash", "servers": {"not-a-server": {}}}
                _feed(fwd, op="delta", delta=bad)
                await _settle()
                assert fwd.fatal == [True]
                assert fwd._pump_task.done()
                assert fwd._pump_task.exception() is None
                # whoever was waiting on the pipe hears about it
                with pytest.raises(ConnectionError):
                    await forward
            finally:
                await fwd.stop()

        run(scenario())


#: A small 2-worker fleet on an ephemeral port.
FLEET_ARGS = ["--workers", "2", "--port", "0", "--servers", "6", "--entries", "10"]


class TestFleetEndToEnd:
    def test_cli_fleet_serves_and_tears_down_cleanly(self):
        with ServeProcess(FLEET_ARGS) as serve:
            assert len(serve.workers()) == 2  # two "index pid" lines
            call = subprocess.run(
                [sys.executable, "-m", "repro", "call", "round_robin",
                 "--host", serve.host, "--port", str(serve.port),
                 "--target", "5", "--count", "2"],
                capture_output=True,
                text=True,
                env=serve.env,
                timeout=30,
            )
            assert call.returncode == 0, call.stdout + call.stderr
            _pipelined_write_between_reads(serve.host, serve.port)
            code = serve.stop()
            out = serve.output()
        assert code == 0, out
        assert "[serve] stopped" in out
        assert "Traceback" not in out

    def test_workers_reject_peers(self):
        from repro.core.exceptions import InvalidParameterError
        from repro.net.cli import cmd_serve

        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--workers", "2", "--peers", "s1=127.0.0.1:1", "--port", "0"]
        )
        with pytest.raises(InvalidParameterError, match="--peers"):
            cmd_serve(args)


# --------------------------------------------------------------------------
# Warm respawn: the hot-set handoff, end to end
# --------------------------------------------------------------------------


HOT_LOOKUP = {
    "op": "send",
    "server": 0,
    "key": "full_replication",
    "message": encode_message(LookupRequest(0)),
}


async def _hello_binary(host, port):
    """One fresh connection negotiated onto the binary codec."""
    reader, writer = await asyncio.open_connection(host, port)
    await write_frame(writer, {"op": "hello", "codecs": ["binary", "json"]})
    reply = await asyncio.wait_for(read_frame(reader), 10)
    assert reply["ok"] and reply["value"]["codec"] == "binary", reply
    return reader, writer


async def _binary_request_raw(reader, writer, envelope):
    """Send one binary envelope; return the raw reply frame bytes."""
    await write_frame(writer, dict(envelope), codec=CODEC_BINARY)
    header = await asyncio.wait_for(reader.readexactly(4), 10)
    (length,) = struct.unpack(">I", header)
    return header + await asyncio.wait_for(reader.readexactly(length), 10)


async def _probe(host, port):
    """Hot lookup then capabilities on one fresh binary connection.

    Returns ``(raw reply bytes, capabilities dict)`` — the lookup goes
    first so the capabilities counters include it and nothing else.
    """
    reader, writer = await _hello_binary(host, port)
    try:
        raw = await _binary_request_raw(reader, writer, HOT_LOOKUP)
        info_raw = await _binary_request_raw(reader, writer, {"op": "info"})
        info = decode_envelope_binary(info_raw[4:])["value"]
        return raw, info["capabilities"]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestWarmRespawn:
    def test_respawned_reader_serves_hot_key_warm(self):
        """SIGKILL a reader mid-fleet: its replacement must answer the
        previously-hot key as a cache hit — no cold miss — and
        byte-identically to the pre-kill replies, because the writer
        shipped its hot set over the sync handshake and the reader
        imported it before accepting its first connection."""
        with ServeProcess(FLEET_ARGS) as serve:
            host, port = serve.host, serve.port

            async def scenario():
                # Warm every worker's cache: fresh connections land
                # on either worker; keep probing until both have
                # served the hot lookup at least once.  The writer
                # (index 0) matters most — its hot set is what the
                # respawned reader will be handed.
                baselines = {}
                for _ in range(60):
                    raw, caps = await _probe(host, port)
                    index = caps["workers"]["index"]
                    if index in baselines:
                        assert baselines[index] == raw
                    baselines[index] = raw
                    if {0, 1} <= set(baselines):
                        break
                assert {0, 1} <= set(baselines), (
                    f"probes only reached workers {sorted(baselines)}"
                )
                # Both workers answer byte-identically already.
                assert baselines[0] == baselines[1]
                return baselines[0]

            baseline = asyncio.run(asyncio.wait_for(scenario(), 60))

            victims = serve.workers()
            os.kill(victims[1], signal.SIGKILL)
            # Raises if the fleet died or no reader came back.
            serve.await_respawn(1, victims[1])

            async def after():
                for _ in range(60):
                    raw, caps = await _probe(host, port)
                    if caps["workers"]["index"] != 1:
                        continue  # landed on the writer; try again
                    cache = caps["cache"]
                    # Its *first* lookup (ours) was a hit: the hot
                    # set arrived before the first connection.
                    assert cache["hits"] >= 1, cache
                    assert cache["misses"] == 0, cache
                    assert raw == baseline
                    return
                raise AssertionError(
                    "probes never reached the respawned reader"
                )

            asyncio.run(asyncio.wait_for(after(), 60))
            serve.stop()
            out = serve.output()
        assert "Traceback" not in out, out


# --------------------------------------------------------------------------
# Fleet boot: readiness is an event, and so is dying in boot
# --------------------------------------------------------------------------


def _log_config(data_dir):
    return ServiceConfig(server_count=4, entry_count=6, store="log", data_dir=str(data_dir))


class TestFleetBoot:
    """The supervisor waits on a worker's ready pipe and its process
    sentinel together, so a worker that exits in boot fails the boot as
    it exits, at first boot and on a respawn alike."""

    def test_a_writer_that_cannot_recover_fails_the_boot_at_once(self, tmp_path, capfd):
        data = tmp_path / "data"
        data.mkdir()
        # A damaged line before the last one: recovery refuses to boot.
        (data / "journal.000001.log").write_text("not json\n[]\n")
        started = time.monotonic()
        assert run_worker_fleet(_log_config(data), workers=2) == 1
        assert time.monotonic() - started < 15  # the boot bound is 30 s
        err = capfd.readouterr().err
        assert "RecoveryError" in err
        assert "worker fleet failed to boot: worker 0 exited 1 at boot" in err

    def test_a_respawned_reader_that_dies_in_boot_fails_the_fleet_at_once(
        self, tmp_path
    ):
        data = tmp_path / "data"
        supervisor = _Supervisor(
            _log_config(data), host="127.0.0.1", port=0, workers=2, ready_file=None
        )
        try:
            supervisor.start_fleet()
            first = supervisor.procs[1].pid
            # Damage the journal under the running fleet: the next
            # reader to boot cannot recover from it.
            (log,) = data.glob("journal.*.log")
            with open(log, "a", encoding="utf-8") as handle:
                handle.write("not json\n[]\n")
            os.kill(first, signal.SIGKILL)
            started = time.monotonic()
            assert supervisor.supervise() == 1
            assert time.monotonic() - started < 15
            assert supervisor.procs[1].pid != first
            assert supervisor.procs[1].exitcode == 1
        finally:
            supervisor.shutdown()


class TestManifest:
    def test_a_failed_replace_leaves_the_previous_manifest(self, tmp_path, monkeypatch):
        """The manifest is replaced, never rewritten in place: a write
        that fails leaves the previous one byte-identical."""
        ready = tmp_path / "ready"
        supervisor = _Supervisor(
            CONFIG, host="127.0.0.1", port=0, workers=2, ready_file=str(ready)
        )
        try:
            supervisor.procs = {index: types.SimpleNamespace(pid=100 + index) for index in (0, 1)}
            supervisor.write_manifests()
            before = (tmp_path / "ready.workers").read_bytes()
            assert before == b"0 100\n1 101\n"
            supervisor.procs[1] = types.SimpleNamespace(pid=102)

            def refuse(*_args):
                raise OSError("no space left on device")

            monkeypatch.setattr(os, "replace", refuse)
            with pytest.raises(OSError):
                supervisor.write_manifests()
            assert (tmp_path / "ready.workers").read_bytes() == before
        finally:
            supervisor.procs = {}
            supervisor.shutdown()
