"""Pipelined batches and codec negotiation, end to end over sockets."""

import asyncio
import json
import random
import struct
import time

import pytest

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.client import AsyncLookupClient, ServiceError
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_message,
    encode_value,
    hello_envelope,
)
from repro.net.service import MAX_BATCH, LookupService, ServiceConfig
from repro.net.workers import apply_delta, compute_apply_delta, wire_envelope

from .test_workers import _bus_fed_forwarder

def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


CONFIG = ServiceConfig(server_count=12, entry_count=30, seed=7)


async def with_service(fn, config=CONFIG, service_cls=LookupService):
    service = service_cls(config)
    host, port = await service.start(port=0)
    try:
        return await fn(service, host, port)
    finally:
        await service.stop()


class ReversingService(LookupService):
    """A conforming-but-hostile peer: batch sub-replies arrive in
    *reverse* request order.  Ids are echoed, so a correct client must
    correlate by id and never by position."""

    async def _handle_batch(self, envelope, raw, forwarder):
        reply = await super()._handle_batch(envelope, raw, forwarder)
        if reply.get("ok"):
            reply["value"] = list(reversed(reply["value"]))
        return reply


class StallingService(LookupService):
    """Holds every multi-item batch on a stalled handler before
    answering it in reverse order — a slow peer draining out of
    order, the worst case for reply correlation."""

    def __init__(self, config):
        super().__init__(config)
        self.stalls = 0

    async def _handle_batch(self, envelope, raw, forwarder):
        reply = await super()._handle_batch(envelope, raw, forwarder)
        if reply.get("ok") and len(reply["value"]) > 1:
            self.stalls += 1
            time.sleep(0.005)
            reply["value"] = list(reversed(reply["value"]))
        return reply


# --------------------------------------------------------------------------
# Negotiation matrix
# --------------------------------------------------------------------------


class TestNegotiationMatrix:
    @pytest.mark.parametrize(
        ("client_codec", "negotiated"),
        [
            ("json", CODEC_JSON),  # legacy client: no hello at all
            ("binary", CODEC_BINARY),
        ],
    )
    def test_client_preference(self, client_codec, negotiated):
        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(1), codec=client_codec
            ) as client:
                result = await client.lookup("round_robin", 6)
                assert result.success
                conn = await client._connection()
                assert conn.codec == negotiated
                # A second lookup on the negotiated connection.
                assert (await client.lookup("hash", 6)).success

        run(with_service(scenario))

    def test_unknown_codec_is_rejected(self):
        # "auto" was an alias of "binary" and is gone with it
        for codec in ("auto", "msgpack"):
            with pytest.raises(ValueError, match="json or binary"):
                AsyncLookupClient("127.0.0.1", 1, codec=codec)

    def test_json_only_server_falls_back(self, monkeypatch):
        # Simulate a pre-binary peer: its hello negotiation only ever
        # answers "json".  A binary-preferring client must fall back
        # transparently — same results, JSON frames.
        import repro.net.service as service_mod

        monkeypatch.setattr(
            service_mod, "negotiate_codec", lambda offered: CODEC_JSON
        )

        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(1), codec="binary"
            ) as client:
                report = await client.lookup_many("round_robin", [6, 6, 6])
                assert report.all_success
                conn = await client._connection()
                assert conn.codec == CODEC_JSON
                assert (conn.caps or {}).get("batch")  # batching still on

        run(with_service(scenario))

    def test_hello_less_server_degrades_to_sequential(self, monkeypatch):
        # A peer that rejects hello outright (oldest wire): the client
        # keeps JSON and lookup_many degrades to sequential lookups.
        original = LookupService.handle_envelope

        def no_hello(self, envelope, *, raw=False):
            if envelope.get("op") == "hello":
                return {
                    "ok": False,
                    "error": "bad-request",
                    "detail": "unknown op: hello",
                }
            return original(self, envelope, raw=raw)

        monkeypatch.setattr(LookupService, "handle_envelope", no_hello)

        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(1), codec="binary"
            ) as client:
                report = await client.lookup_many("round_robin", [6, 6])
                assert report.all_success
                conn = await client._connection()
                assert conn.codec == CODEC_JSON

        run(with_service(scenario))


# --------------------------------------------------------------------------
# Batched lookups
# --------------------------------------------------------------------------


class TestBatchedLookups:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_lookup_many_meets_targets(self, codec):
        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(2), codec=codec
            ) as client:
                targets = [6, 1, 8, 3, 6, 8, 2, 5]
                report = await client.lookup_many("round_robin", targets)
                assert len(report) == len(targets)
                assert report.all_success and report.exit_code == 0
                universe = {f"v{i}" for i in range(1, 31)}
                for target, result in zip(targets, report):
                    assert len(result.entries) == target
                    ids = [e.entry_id for e in result.entries]
                    assert len(set(ids)) == target
                    assert set(ids) <= universe

        run(with_service(scenario))

    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_out_of_order_replies_correlate_by_id(self, codec):
        # Distinct targets make misdelivery observable: if the client
        # ever trusted reply order, reversed batches would hand lookup
        # #0's answer to lookup #N and the found-counts would shuffle.
        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(3), codec=codec
            ) as client:
                targets = list(range(1, 9))
                report = await client.lookup_many("full_replication", targets)
                assert [len(r.entries) for r in report] == targets
                assert report.all_success

        run(with_service(scenario, service_cls=ReversingService))

    def test_stalled_reversing_peer(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(4), codec="binary"
            ) as client:
                targets = [8, 2, 6, 4, 1, 7]
                report = await client.lookup_many("round_robin", targets)
                assert [len(r.entries) for r in report] == targets
                assert service.stalls > 0  # the hostile path actually ran

        run(with_service(scenario, service_cls=StallingService))

    def test_single_lookup_unchanged_by_batch_support(self):
        # lookup() and lookup_many() must agree on verdicts.
        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(5), codec="binary"
            ) as client:
                one = await client.lookup("fixed", 12)  # > x=10 → degraded
                many = await client.lookup_many("fixed", [12, 12])
                assert one.degraded
                assert many.exit_code == 3
                assert all(len(r.entries) == 10 for r in many)

        run(with_service(scenario))


# --------------------------------------------------------------------------
# The batch envelope contract
# --------------------------------------------------------------------------


class TestBatchEnvelope:
    def test_id_echo_int_and_str(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope(
            {
                "op": "batch",
                "requests": [
                    {"op": "ping", "id": 7},
                    {"op": "ping", "id": "alpha"},
                    {"op": "ping"},
                ],
            }
        )
        assert reply["ok"]
        subs = reply["value"]
        assert subs[0]["id"] == 7
        assert subs[1]["id"] == "alpha"
        assert "id" not in subs[2]

    def test_nested_batch_rejected(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope(
            {
                "op": "batch",
                "requests": [{"op": "batch", "requests": []}, {"op": "ping"}],
            }
        )
        assert reply["ok"]  # the batch itself succeeds...
        subs = reply["value"]
        assert not subs[0]["ok"]  # ...but the nested one is refused
        assert subs[0]["error"] == "bad-request"
        assert subs[1]["ok"]

    def test_oversized_batch_rejected(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope(
            {"op": "batch", "requests": [{"op": "ping"}] * (MAX_BATCH + 1)}
        )
        assert not reply["ok"]
        assert reply["error"] == "bad-request"

    def test_malformed_items_fail_individually(self):
        service = LookupService(CONFIG)
        reply = service.handle_envelope(
            {"op": "batch", "requests": [42, {"op": "ping"}]}
        )
        assert reply["ok"]
        assert not reply["value"][0]["ok"]
        assert reply["value"][1]["ok"]
        assert not service.handle_envelope({"op": "batch", "requests": "nope"})[
            "ok"
        ]

    def test_client_batch_method(self):
        async def scenario(service, host, port):
            async with AsyncLookupClient(
                host, port, rng=random.Random(6), codec="binary"
            ) as client:
                replies = await client.batch(
                    [
                        {"op": "ping", "id": 1},
                        {"op": "verify", "key": "round_robin", "id": 2},
                    ]
                )
                assert [r["id"] for r in replies] == [1, 2]
                assert replies[1]["value"]["coverage"] == 30

        run(with_service(scenario))


# --------------------------------------------------------------------------
# One request path, one frame encoder
# --------------------------------------------------------------------------


class StubForwarder:
    """What ``WriteForwarder.forward`` does, minus the bus socket: the
    writer applies the batch's writes, their replies cross a JSON pipe,
    and each delta lands on the reader before its reply is handed back."""

    def __init__(self, writer, reader):
        self.writer = writer
        self.reader = reader
        self.forwarded = []

    async def forward(self, envelopes, landed):
        self.forwarded.append([envelope["id"] for envelope in envelopes])
        applied = [compute_apply_delta(self.writer, wire_envelope(e)) for e in envelopes]
        await asyncio.sleep(0)  # a real suspension, like the bus round-trip
        for reply, delta in applied:
            if delta is not None:
                apply_delta(self.reader, delta)
            landed(json.loads(json.dumps(reply)), True)


def _mixed_batch(codec):
    """Reads, writes and junk in one frame: a sampled lookup, an add,
    a whole-store lookup, a delete, another whole-store lookup, a
    nested batch and a non-dict item."""

    def send(request_id, message):
        return {
            "op": "send",
            "id": request_id,
            "server": 0,
            "key": "full_replication",
            # A binary frame decodes to live messages, a JSON one to
            # tagged dicts; each path gets what its decoder would give.
            "message": message if codec == CODEC_BINARY else encode_message(message),
        }

    return {
        "op": "batch",
        "id": 99,
        "requests": [
            send(1, LookupRequest(3)),
            send("a", AddRequest(entry=Entry("zz-mixed"))),
            send(2, LookupRequest(0)),
            send(3, DeleteRequest(entry=Entry("v1"))),
            send(4, LookupRequest(0)),
            {"op": "batch", "id": 5, "requests": []},
            "not-an-envelope",
        ],
    }


async def _raw_exchange(host, port, codec, envelope):
    """One envelope over a fresh connection; the raw reply frame bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        if codec == CODEC_BINARY:
            writer.write(encode_envelope_as(hello_envelope((CODEC_BINARY,)), CODEC_JSON))
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            hello = decode_frame_body(await reader.readexactly(length))
            assert hello["value"]["codec"] == CODEC_BINARY
        writer.write(encode_envelope_as(envelope, codec))
        header = await reader.readexactly(4)
        (length,) = struct.unpack(">I", header)
        return header + await reader.readexactly(length)
    finally:
        writer.close()
        await writer.wait_closed()


class TestOneRequestPath:
    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_mixed_batch_is_byte_identical_on_every_path(self, codec):
        """`handle_envelope` on a single process, the socket loop, and
        a fleet reader handing its writes to a forwarder — a stub, and a
        real `WriteForwarder` answered by a real `WriterBus` — all emit
        the same reply frame for the same mixed batch."""
        envelope = _mixed_batch(codec)
        direct = LookupService(CONFIG).handle_envelope(
            _mixed_batch(codec), raw=codec == CODEC_BINARY
        )
        expected = encode_envelope_as(direct, codec)

        async def over_socket(service, host, port):
            return await _raw_exchange(host, port, codec, envelope)

        assert run(with_service(over_socket)) == expected

        async def through_a_forwarder(reader_service, host, port):
            stub = StubForwarder(LookupService(CONFIG), reader_service)
            reader_service.forwarder = stub
            frame = await _raw_exchange(host, port, codec, envelope)
            assert stub.forwarded == [["a", 3]]  # one call: the add and the delete
            return frame

        forwarded = run(with_service(through_a_forwarder))
        assert forwarded == expected

        async def through_the_bus(reader_service, host, port):
            fwd = _bus_fed_forwarder(reader_service, LookupService(CONFIG))
            reader_service.forwarder = fwd
            try:
                frame = await _raw_exchange(host, port, codec, envelope)
            finally:
                await fwd.stop()
            (request,) = fwd._writer.frames
            assert [e["message"]["type"] for e in request["envelopes"]] == [
                "AddRequest", "DeleteRequest"]
            return frame

        assert run(with_service(through_the_bus)) == expected

        reply = decode_frame_body(forwarded[4:])
        assert reply["ok"] and reply["id"] == 99
        subs = reply["value"]
        # per-item id echo, verbatim and in request order (items
        # refused before dispatch carry none)
        assert [sub.get("id") for sub in subs] == [1, "a", 2, 3, 4, None, None]
        assert [sub["ok"] for sub in subs] == [True] * 5 + [False, False]

        def ids(sub):
            return {entry.entry_id for entry in decode_value(sub["value"])}

        # read-your-writes inside one batch, through the forwarder
        assert len(ids(subs[0])) == 3
        assert "zz-mixed" in ids(subs[2]) and "v1" in ids(subs[2])
        assert "zz-mixed" in ids(subs[4]) and "v1" not in ids(subs[4])


#: Whole-store reply bodies of 10, 100 and 320 entries per server.
BODY_CONFIG = ServiceConfig(
    server_count=4,
    entry_count=320,
    seed=7,
    schemes={"fixed": {"x": 10}, "random_server": {"x": 100}, "full_replication": {}},
)


class TestCachedFrames:
    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_cached_bodies_are_the_plain_frames(self, codec):
        """A reply served from the cache is the cold reply byte for
        byte, and a batch reply carrying cached bodies is the frame a
        plainly rebuilt reply encodes to — whatever the body size."""
        message = LookupRequest(0)
        sends = [
            {
                "op": "send",
                "id": index,
                "server": 1,
                "key": key,
                "message": message if codec == CODEC_BINARY else encode_message(message),
            }
            for index, key in enumerate(BODY_CONFIG.schemes)
        ]

        async def scenario(service, host, port):
            singles = []
            for envelope in sends:
                cold = await _raw_exchange(host, port, codec, envelope)
                assert await _raw_exchange(host, port, codec, envelope) == cold
                singles.append(decode_frame_body(cold[4:]))
            assert service.reply_cache.snapshot()["hits"] == len(sends)
            batch = await _raw_exchange(
                host, port, codec, {"op": "batch", "id": 9, "requests": sends}
            )
            assert service.reply_cache.snapshot()["hits"] == 2 * len(sends)
            return singles, batch

        singles, batch = run(with_service(scenario, BODY_CONFIG))
        assert [len(decode_value(sub["value"])) for sub in singles] == [10, 100, 320]
        assert batch == encode_envelope_as({"ok": True, "value": singles, "id": 9}, codec)

    @pytest.mark.parametrize("codec", [CODEC_JSON, CODEC_BINARY])
    def test_store_built_bodies_follow_an_add_and_a_delete(self, codec):
        """Bodies of 10 / 320 / 2,000 entries: the cold frame, the
        cached frame and the frame the generic encoder gives for the
        store's entry list are one and the same — at boot, after a
        dense add and a delete (the bodies built from the store's index
        list), and after a payload add (the builder declines)."""
        config = ServiceConfig(
            server_count=4,
            entry_count=2000,
            seed=7,
            schemes={"fixed": {"x": 10}, "random_server": {"x": 320}, "full_replication": {}},
        )
        binary = codec == CODEC_BINARY

        def wire(message):
            return message if binary else encode_message(message)

        async def check(service, host, port, sizes):
            for index, (key, size) in enumerate(zip(config.schemes, sizes)):
                envelope = {
                    "op": "send", "id": index, "server": 1, "key": key,
                    "message": wire(LookupRequest(0)),
                }
                held = service.cluster.servers[1].store(key).as_list()
                assert len(held) == size
                plain = encode_envelope_as(
                    {"ok": True, "value": held if binary else encode_value(held), "id": index},
                    codec,
                )
                hits = service.reply_cache.snapshot()["hits"]
                assert await _raw_exchange(host, port, codec, envelope) == plain
                assert await _raw_exchange(host, port, codec, envelope) == plain
                assert service.reply_cache.snapshot()["hits"] == hits + 1

        async def mutate(host, port, message):
            for key in config.schemes:
                envelope = {"op": "send", "server": 1, "key": key, "message": wire(message)}
                reply = decode_frame_body((await _raw_exchange(host, port, codec, envelope))[4:])
                assert reply["ok"], reply

        async def scenario(service, host, port):
            await check(service, host, port, (10, 320, 2000))
            await mutate(host, port, AddRequest(Entry("v2001")))
            victim = service.cluster.servers[1].store("fixed").as_list()[4]
            await mutate(host, port, DeleteRequest(victim))
            sizes = [len(service.cluster.servers[1].store(key)) for key in config.schemes]
            assert sizes[2] == 2000 and victim not in service.cluster.servers[1].store("fixed")
            await check(service, host, port, sizes)
            await mutate(host, port, AddRequest(Entry("v2002", payload={"host": "h"})))
            sizes = [len(service.cluster.servers[1].store(key)) for key in config.schemes]
            assert service.cluster.servers[1].store("full_replication").riders == 1
            await check(service, host, port, sizes)

        run(with_service(scenario, config))
