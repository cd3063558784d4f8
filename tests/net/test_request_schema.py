"""The request schema at the edge: what a refused request may not touch.

Every test here failed before the schema existed: a server-internal
message sent by a client was applied (and, through a fleet reader,
fanned out to every worker), a malformed entry was either stored or
died half-way after wiping the scheme's cached replies, and a missing
field was reported as a bare ``KeyError`` repr.
"""

import asyncio
import os
import struct
import tempfile

import pytest

from repro.cluster.messages import (
    AddRequest,
    DeleteRequest,
    FetchReplacement,
    Heartbeat,
    IncrementCount,
    LookupRequest,
    MigrateRequest,
    QueryCounters,
    RemoveMessage,
    RemoveReplacement,
    RemoveWithHead,
    SetCounters,
    StoreMessage,
    StorePositioned,
    StoreSetMessage,
)
from repro.core.entry import Entry
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    MESSAGE_TYPES,
    decode_frame_body,
    encode_envelope_as,
    encode_message,
    hello_envelope,
)
from repro.net.service import (
    CLIENT_REQUESTS,
    DEFAULT_SCHEMES,
    LookupService,
    ServiceConfig,
)
from repro.net.workers import WriteForwarder, WriterBus

CODECS = [CODEC_JSON, CODEC_BINARY]
SCHEMES = sorted(DEFAULT_SCHEMES)

#: One instance of every registered message type a client may not send:
#: the eleven server-to-server messages, and the heartbeat, which has
#: its own op.
SERVER_INTERNAL = [
    StoreMessage(Entry("zz-new")),
    StoreSetMessage((Entry("zz-new"), Entry("v1"))),
    RemoveMessage(Entry("v1")),
    RemoveWithHead(Entry("v1"), 0),
    StorePositioned(Entry("zz-new"), 3),
    SetCounters(head=-3, tail="x"),
    QueryCounters(),
    MigrateRequest(Entry("v1"), 0, 1),
    RemoveReplacement(Entry("v1"), 0),
    FetchReplacement(("v1",)),
    IncrementCount(5),
    Heartbeat("s1", 1, ()),
]


def _config(tmp_path, **extra):
    return ServiceConfig(
        server_count=8, entry_count=16, seed=7, store="log", data_dir=str(tmp_path),
        **extra,
    )


def _envelope(codec, server, key, message, **extra):
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": message if codec == CODEC_BINARY else encode_message(message),
        **extra,
    }


def _through(service, codec, envelope):
    """One envelope through ``codec``'s real frame encode and decode."""
    wire = decode_frame_body(encode_envelope_as(envelope, codec)[4:])
    return service.handle_envelope(wire, raw=codec == CODEC_BINARY)


def _warm(service, codec):
    """Fill one RNG-free reply-cache row per scheme."""
    for key in SCHEMES:
        assert _through(service, codec, _envelope(codec, 0, key, LookupRequest(0)))["ok"]
    assert len(service.reply_cache) == len(SCHEMES)


def _state(service):
    """Everything a refused request must leave as it was."""
    return (
        [[s.store(key).mask for s in service.cluster.servers] for key in SCHEMES],
        [service.strategies[key].coverage() for key in SCHEMES],
        service.journal.log_records,
        len(service.reply_cache),
        service.cluster.rng.getstate(),
    )


def test_the_list_is_every_server_internal_type():
    internal = {type(message) for message in SERVER_INTERNAL}
    assert len(internal) == 12
    assert internal == set(MESSAGE_TYPES.values()) - set(CLIENT_REQUESTS)


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("message", SERVER_INTERNAL, ids=lambda m: type(m).__name__)
def test_server_internal_message_is_refused(codec, message, tmp_path):
    service = LookupService(_config(tmp_path))
    try:
        _warm(service, codec)
        before = _state(service)
        for key in SCHEMES:
            for server in (0, 1):
                reply = _through(service, codec, _envelope(codec, server, key, message))
                assert reply["ok"] is False and reply["error"] == "bad-request"
                assert "server-internal" in reply["detail"]
        assert _state(service) == before
    finally:
        service.journal.close()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize("entry", [5, "v77", None, [1]], ids=repr)
def test_malformed_entry_is_refused_on_every_scheme(codec, entry, tmp_path):
    service = LookupService(_config(tmp_path))
    try:
        _warm(service, codec)
        before = _state(service)
        for key in SCHEMES:
            for message in (AddRequest(entry), DeleteRequest(entry)):
                reply = _through(service, codec, _envelope(codec, 1, key, message))
                assert reply["error"] == "bad-request", (key, reply)
                assert "entry must be an Entry" in reply["detail"]
        assert _state(service) == before
    finally:
        service.journal.close()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize(
    "payload", [(1, 2), Entry("v3"), {"a": (1,)}, float("nan")], ids=repr
)
def test_payload_the_journal_cannot_give_back_is_refused(codec, payload, tmp_path):
    # A tuple came back from recovery as a list; an entry made the
    # journal raise after the store had already changed.
    service = LookupService(_config(tmp_path))
    try:
        before = _state(service)
        message = AddRequest(Entry("zz-payload", payload))
        reply = _through(service, codec, _envelope(codec, 1, "full_replication", message))
        assert reply["error"] == "bad-request"
        assert _state(service) == before
        message = AddRequest(Entry("zz-payload", {"host": "h", "ports": [1, 2]}))
        assert _through(service, codec, _envelope(codec, 1, "full_replication", message))["ok"]
    finally:
        service.journal.close()


@pytest.mark.parametrize("codec", CODECS)
@pytest.mark.parametrize(
    ("envelope", "field"),
    [
        ({"op": "send", "server": 0, "key": "hash"}, "message"),
        ({"op": "send", "key": "hash", "message": LookupRequest(0)}, "server"),
        ({"op": "send", "server": 0, "message": LookupRequest(0)}, "key"),
        ({"op": "verify"}, "key"),
        ({"op": "heartbeat"}, "message"),
        ({"op": "batch"}, "requests"),
    ],
    ids=lambda value: value if isinstance(value, str) else value["op"],
)
def test_missing_field_is_named(codec, envelope, field):
    service = LookupService(ServiceConfig(server_count=4, entry_count=8))
    if codec == CODEC_JSON and "message" in envelope:
        envelope = dict(envelope, message=encode_message(envelope["message"]))
    reply = _through(service, codec, dict(envelope, id=9))
    assert reply == {
        "ok": False,
        "error": "bad-request",
        "detail": f"{envelope['op']}: missing field {field!r}",
        "id": 9,
    }


# --------------------------------------------------------------------------
# The fleet: a refused request is never forwarded to the writer
# --------------------------------------------------------------------------


class RecordingForwarder:
    """Stands where a reader's ``WriteForwarder`` does and records what
    would have travelled to the writer."""

    def __init__(self):
        self.forwarded = []

    async def forward(self, envelopes, landed):
        self.forwarded.extend(envelopes)
        for _ in envelopes:
            landed({"ok": True, "value": None}, True)


def _serve(service, envelope, raw, forwarder):
    return asyncio.run(service._serve(envelope, raw, forwarder))


@pytest.mark.parametrize("codec", CODECS)
def test_refused_requests_never_reach_the_forwarder(codec):
    service = LookupService(ServiceConfig(server_count=4, entry_count=8))
    raw = codec == CODEC_BINARY
    stub = RecordingForwarder()
    refused = [
        _envelope(codec, 0, "fixed", message) for message in SERVER_INTERNAL
    ] + [
        _envelope(codec, 0, "fixed", AddRequest(5)),
        _envelope(codec, True, "fixed", AddRequest(Entry("zz"))),
        _envelope(codec, 0, "nope", DeleteRequest(Entry("v1"))),
        _envelope(codec, 0, "fixed", AddRequest(Entry("zz", (1,)))),
    ]
    for envelope in refused:
        wire = decode_frame_body(encode_envelope_as(envelope, codec)[4:])
        assert _serve(service, wire, raw, stub)["error"] == "bad-request"
    good = _envelope(codec, 0, "fixed", AddRequest(Entry("zz-ok")), id=4)
    batch = {"op": "batch", "requests": refused + [good]}
    wire = decode_frame_body(encode_envelope_as(batch, codec)[4:])
    subs = _serve(service, wire, raw, stub)["value"]
    assert [sub["ok"] for sub in subs] == [False] * len(refused) + [True]
    # Only the one valid write travelled, as a checked envelope.
    (forwarded,) = stub.forwarded
    assert forwarded["message"] == AddRequest(Entry("zz-ok"))
    assert forwarded["message"].entry.entry_id == "zz-ok"


async def _exchange(host, port, codec, envelopes):
    """Envelopes over one fresh connection negotiated onto ``codec``."""
    reader, writer = await asyncio.open_connection(host, port)
    replies = []
    try:
        for envelope in [hello_envelope((codec,))] + envelopes:
            frame_codec = CODEC_JSON if envelope["op"] == "hello" else codec
            writer.write(encode_envelope_as(envelope, frame_codec))
            (length,) = struct.unpack(">I", await reader.readexactly(4))
            replies.append(decode_frame_body(await reader.readexactly(length)))
    finally:
        writer.close()
        await writer.wait_closed()
    return replies[1:]


@pytest.mark.parametrize("codec", CODECS)
def test_fleet_reader_refuses_server_internal_messages(codec):
    """Through a reader of a two-worker fleet (writer bus and forwarder
    in-process, client frames over a socket): nothing reaches the
    writer, nothing moves on either worker."""

    async def scenario(tmp):
        writer_svc = LookupService(_config(os.path.join(tmp, "data")))
        reader_svc = LookupService(
            _config(os.path.join(tmp, "data"), store_read_only=True)
        )
        bus = WriterBus(writer_svc, os.path.join(tmp, "bus.sock"))
        await bus.start()
        writer_svc.forwarder = bus
        forwarder = WriteForwarder(reader_svc, os.path.join(tmp, "bus.sock"))
        await forwarder.start()
        reader_svc.forwarder = forwarder
        host, port = await reader_svc.start(port=0)
        try:
            warm = [_envelope(codec, 0, key, LookupRequest(0)) for key in SCHEMES]
            assert all(reply["ok"] for reply in await _exchange(host, port, codec, warm))
            before = (bus.epoch, _state(writer_svc), _state(reader_svc))
            sends = [
                _envelope(codec, server, key, message)
                for message in SERVER_INTERNAL
                for key in SCHEMES
                for server in (0, 1)
            ]
            batch = {"op": "batch", "requests": sends[:40]}
            replies = await _exchange(host, port, codec, sends + [batch])
            assert [reply["error"] for reply in replies[:-1]] == ["bad-request"] * len(sends)
            assert [sub["error"] for sub in replies[-1]["value"]] == ["bad-request"] * 40
            assert (bus.epoch, _state(writer_svc), _state(reader_svc)) == before
            # The pipe itself still works: a client write goes through.
            write = _envelope(codec, 0, "full_replication", AddRequest(Entry("zz-w")))
            (reply,) = await _exchange(host, port, codec, [write])
            assert reply["ok"] and bus.epoch == before[0] + 1
        finally:
            await reader_svc.stop()
            await forwarder.stop()
            await bus.stop()
            writer_svc.journal.close()
            reader_svc.journal.close()

    with tempfile.TemporaryDirectory() as tmp:
        asyncio.run(asyncio.wait_for(scenario(tmp), timeout=60))
