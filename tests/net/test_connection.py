"""The service's socket face: one ``asyncio.Protocol`` per connection.

Most cases drive :class:`repro.net.service._Connection` directly with a
stand-in transport, so chunk boundaries are exact: one byte at a time,
many frames in one chunk, a ``hello`` and the frame after it in one
chunk, an oversize prefix, end-of-stream mid-frame, an undecodable body
and then a good one, a full write buffer.  The rest run over real
sockets: a write forwarded by a fleet reader, pipelined between reads,
and ``stop()`` while a forward is parked.
"""

import asyncio
import itertools
import os
import struct
import tempfile

from repro.cluster.messages import AddRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.codec import (
    BINARY_MAGIC,
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_message,
    hello_envelope,
    read_frame,
)
from repro.net.service import PARKED_BUFFER, LookupService, ServiceConfig, _Connection
from repro.net.workers import WriteForwarder, WriterBus

CONFIG = ServiceConfig(server_count=6, entry_count=30, seed=5)


def run(coro):
    return asyncio.run(coro)


class Transport:
    """What :class:`_Connection` asks of a transport, recorded."""

    def __init__(self):
        self.out = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data):
        assert not self.closed
        self.out += data

    def close(self):
        self.closed = True

    def is_closing(self):
        return self.closed

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def frames(self):
        """Every reply written so far, decoded, with its raw body."""
        out, pos = [], 0
        while pos < len(self.out):
            (length,) = struct.unpack_from(">I", self.out, pos)
            body = bytes(self.out[pos + 4 : pos + 4 + length])
            out.append((decode_frame_body(body), body))
            pos += 4 + length
        return out


def _connected(service):
    connection = _Connection(service)
    transport = Transport()
    connection.connection_made(transport)
    return connection, transport


def _ping(request_id, codec=CODEC_JSON):
    return encode_envelope_as({"op": "ping", "id": request_id}, codec)


def _lookup(request_id, target=0, server=0, key="full_replication"):
    return encode_envelope_as(
        {
            "op": "send",
            "id": request_id,
            "server": server,
            "key": key,
            "message": encode_message(LookupRequest(target)),
        },
        CODEC_JSON,
    )


def _add(request_id, entry_id, key="full_replication"):
    return encode_envelope_as(
        {
            "op": "send",
            "id": request_id,
            "server": 0,
            "key": key,
            "message": encode_message(AddRequest(Entry(entry_id))),
        },
        CODEC_JSON,
    )


def _ids(transport):
    return [reply.get("id") for reply, _ in transport.frames()]


def test_one_byte_chunks_answer_each_frame_once_whole():
    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        frames = [_ping(1), _lookup(2), _ping(3)]
        ends = list(itertools.accumulate(map(len, frames)))
        stream = b"".join(frames)
        for index in range(len(stream)):
            connection.data_received(stream[index : index + 1])
            assert len(transport.frames()) == sum(end <= index + 1 for end in ends)
        return transport

    transport = run(scenario())
    assert _ids(transport) == [1, 2, 3]
    assert not transport.closed and transport.reading


def test_many_frames_in_one_chunk_answer_in_order():
    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        connection.data_received(b"".join(_ping(i) for i in range(100)) + _ping(100)[:5])
        assert _ids(transport) == list(range(100))
        connection.data_received(_ping(100)[5:])
        return transport

    assert _ids(run(scenario())) == list(range(101))


def test_hello_switches_the_codec_for_the_next_frame_in_its_chunk():
    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        hello = encode_envelope_as(hello_envelope((CODEC_BINARY,)), CODEC_JSON)
        connection.data_received(hello + _ping(1, CODEC_BINARY) + _ping(2))
        return connection, transport

    connection, transport = run(scenario())
    (hello, hello_body), (pong, pong_body), (again, again_body) = transport.frames()
    assert hello["value"]["codec"] == CODEC_BINARY and hello_body[:1] == b"{"
    assert pong == {"ok": True, "value": "pong", "id": 1}
    assert pong_body[0] == again_body[0] == BINARY_MAGIC  # replies after the hello
    assert again["id"] == 2 and connection.codec == CODEC_BINARY


def test_an_oversize_prefix_closes_without_a_reply():
    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        connection.data_received(_ping(1) + struct.pack(">I", MAX_FRAME + 1) + b"{")
        connection.data_received(_ping(2))  # arrives after the close: ignored
        return transport

    transport = run(scenario())
    assert transport.closed and _ids(transport) == [1]


def test_end_of_stream_answers_whole_frames_then_closes():
    async def scenario():
        outcomes = []
        for tail in (b"", _ping(2)[:6]):  # a clean hangup, then one mid-frame
            connection, transport = _connected(LookupService(CONFIG))
            connection.data_received(_ping(1) + tail)
            assert not transport.closed
            assert connection.eof_received() is True  # half-open until answered
            outcomes.append((_ids(transport), transport.closed))
        return outcomes

    assert run(scenario()) == [([1], True), ([1], True)]


def test_end_of_stream_behind_a_full_write_buffer_waits_for_its_frames():
    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        connection.pause_writing()
        connection.data_received(_ping(1) + _ping(2))
        connection.eof_received()
        before = (_ids(transport), transport.closed)
        connection.resume_writing()
        return before, (_ids(transport), transport.closed)

    assert run(scenario()) == (([], False), ([1, 2], True))


def test_an_undecodable_body_is_refused_and_the_next_frame_served():
    # A well-framed binary body naming a message index no build has.
    body = bytes((BINARY_MAGIC, 1, 3, 0x0B, 0x7F))

    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        connection.data_received(struct.pack(">I", len(body)) + body + _ping(7))
        malformed = b"{not json"
        connection.data_received(struct.pack(">I", len(malformed)) + malformed + _ping(8))
        return transport

    transport = run(scenario())
    (refused, _), (pong, _) = transport.frames()
    assert refused == {"ok": False, "error": "bad-request", "detail": "undecodable frame body"}
    assert pong["id"] == 7
    assert transport.closed  # a body that is not JSON breaks the framing contract


def test_a_full_write_buffer_pauses_reading_and_answering():
    async def scenario():
        connection, transport = _connected(LookupService(CONFIG))
        connection.data_received(_ping(1))
        connection.pause_writing()
        assert not transport.reading
        connection.data_received(_ping(2) + _ping(3))
        assert _ids(transport) == [1]  # buffered, not answered
        connection.resume_writing()
        assert transport.reading
        return transport

    assert _ids(run(scenario())) == [1, 2, 3]


def test_a_paused_socket_delivers_every_reply_in_order():
    # Whole-store replies of 1,500 entries, 300 of them pipelined
    # unread: the server's transport fills and pauses; reading them
    # all resumes it.
    config = ServiceConfig(server_count=4, entry_count=1500, seed=2)
    pauses = []

    class Counting(_Connection):
        def pause_writing(self):
            pauses.append(len(self.buffer))
            super().pause_writing()

    async def scenario():
        service = LookupService(config)
        loop = asyncio.get_running_loop()
        server = await loop.create_server(lambda: Counting(service), "127.0.0.1", 0)
        host, port = server.sockets[0].getsockname()[:2]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"".join(_lookup(i) for i in range(300)))
        await writer.drain()
        for _ in range(200):
            if pauses:
                break
            await asyncio.sleep(0.01)
        replies = [await read_frame(reader) for _ in range(300)]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return replies

    replies = run(scenario())
    assert pauses and max(pauses) > 0  # frames were left buffered
    assert [reply["id"] for reply in replies] == list(range(300))
    assert all(len(decode_value(reply["value"])) == 1500 for reply in replies)


def test_a_forwarded_write_pipelined_between_reads_keeps_reply_order():
    async def scenario():
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bus.sock")
            writer_service, reader_service = LookupService(CONFIG), LookupService(CONFIG)
            bus = WriterBus(writer_service, path)
            await bus.start()
            writer_service.forwarder = bus
            forwarder = WriteForwarder(reader_service, path)
            await forwarder.start()
            reader_service.forwarder = forwarder
            host, port = await reader_service.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    _lookup(1) + _add(2, "zz-a") + _lookup(3) + _add(4, "zz-b") + _lookup(5)
                )
                replies = [await read_frame(reader) for _ in range(5)]
                writer.close()
                await writer.wait_closed()
                return replies, bus.epoch
            finally:
                await reader_service.stop()
                await forwarder.stop()
                await bus.stop()

    replies, epoch = run(scenario())
    assert [reply["id"] for reply in replies] == [1, 2, 3, 4, 5]
    assert all(reply["ok"] for reply in replies) and epoch == 2
    seen = [{e.entry_id for e in decode_value(replies[i]["value"])} for i in (0, 2, 4)]
    assert "zz-a" not in seen[0] and "zz-a" in seen[1] and "zz-b" not in seen[1]
    assert {"zz-a", "zz-b"} <= seen[2]  # each read sees the writes before it


class Stalled:
    """A forwarder whose writer never answers."""

    def __init__(self):
        self.calls = 0

    async def forward(self, envelope):
        self.calls += 1
        await asyncio.Event().wait()


class Gated:
    """A forwarder that applies each write on ``service`` once let through."""

    def __init__(self, service):
        self.service = service
        self.gate = asyncio.Event()

    async def forward(self, envelope):
        await self.gate.wait()
        return self.service.handle_envelope(envelope)


def test_a_parked_connection_holds_later_frames_and_bounds_its_buffer():
    async def scenario():
        service = LookupService(CONFIG)
        service.forwarder = gated = Gated(service)
        connection, transport = _connected(service)
        connection.data_received(_ping(1) + _add(2, "zz-gated") + _lookup(3))
        assert connection.parked is not None and _ids(transport) == [1]
        assert transport.reading  # a parked connection keeps reading ...
        pings = b"".join(_ping(i) for i in range(4, 4 + PARKED_BUFFER // len(_ping(9)) + 1))
        connection.data_received(pings)
        assert not transport.reading  # ... until its buffer is full
        gated.gate.set()
        await connection.parked
        return transport

    transport = run(scenario())
    ids = _ids(transport)
    assert ids[:3] == [1, 2, 3] and ids[3:] == list(range(4, 4 + len(ids) - 3))
    lookup = transport.frames()[2][0]
    assert "zz-gated" in {e.entry_id for e in decode_value(lookup["value"])}
    assert transport.reading


def test_stop_with_a_parked_forward_leaves_nothing_pending():
    async def scenario():
        service = LookupService(CONFIG)
        service.forwarder = stalled = Stalled()
        host, port = await service.start()
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_ping(1) + _add(2, "zz-parked") + _ping(3))
        assert (await read_frame(reader))["id"] == 1
        for _ in range(200):
            if any(conn.parked for conn in service._connections):
                break
            await asyncio.sleep(0.01)
        (connection,) = service._connections
        assert connection.parked is not None and stalled.calls == 1
        await service.stop()
        assert not service._connections
        pending = asyncio.all_tasks() - {asyncio.current_task()}
        rest = await reader.read()  # the ping behind the park is never answered
        writer.close()
        await writer.wait_closed()
        return pending, rest

    pending, rest = run(scenario())
    assert pending == set() and rest == b""
