"""Binary wire codec: property round-trips, hostile frames, negotiation.

The binary codec must be a drop-in peer of the JSON codec: every value
and every registered message type round-trips identically through
both, and structurally hostile bytes (truncation, garbage tags, bogus
lengths) surface as :class:`FrameError`/:class:`WireError` — never as
a stray exception or a silently wrong value.  Property tests use
hypothesis; deterministic regressions (the empty-dict write-back, the
fast-path prefixes) are pinned explicitly.
"""

import asyncio
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.messages import AddRequest, LookupRequest
from repro.core.entry import Entry, make_entries
from repro.core.interning import EntryInterner
from repro.core.storage import MemoryBackend
from repro.net import codec
from repro.net.codec import (
    BINARY_MAGIC,
    BINARY_OPS,
    BINARY_VERSION,
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME,
    MESSAGE_TYPES,
    SUPPORTED_CODECS,
    FrameError,
    Prepacked,
    WireError,
    decode_envelope_binary,
    decode_frame_body,
    decode_message,
    decode_value,
    encode_envelope,
    encode_envelope_as,
    encode_envelope_fragments,
    encode_message,
    encode_value,
    hello_envelope,
    negotiate_codec,
    pack_send_envelope,
    pack_send_reply,
    pack_store_bytes,
    pack_value_bytes,
    write_frame,
)

# --------------------------------------------------------------------------
# Strategies
# --------------------------------------------------------------------------

#: Entries in the dense ``v<i>`` universe (ship as one varint) and
#: outside it (ship as ordinary tagged entries), with and without
#: payloads — the codec must not care which is which.
dense_entries = st.integers(min_value=1, max_value=5000).map(
    lambda i: Entry(f"v{i}")
)
odd_entries = st.builds(
    Entry,
    st.sampled_from(["v01", "v1x", "w2", "V3", "note", "v0"]),
    st.one_of(st.none(), st.text(max_size=12), st.integers(-99, 99)),
)
entries = dense_entries | odd_entries

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
)

#: ``"!"`` is the JSON codec's reserved tag key; both codecs reject it
#: at encode time, so it is excluded from *valid*-value strategies.
dict_keys = st.text(max_size=12).filter(lambda k: k != "!")

wire_values = st.recursive(
    scalars | entries,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(dict_keys, children, max_size=4),
    ),
    max_leaves=20,
)

#: Field-type → strategy for building every registered message class
#: generically.  ``test_every_message_type_is_generated`` fails loudly
#: if a new message adds a field type with no strategy, keeping the
#: property sweep complete by construction.
FIELD_STRATEGIES = {
    "Entry": entries,
    "int": st.integers(min_value=-(2**40), max_value=2**40),
    "str": st.text(max_size=16),
    "tuple[str, ...]": st.lists(st.text(max_size=8), max_size=4).map(tuple),
    "tuple[Entry, ...]": st.lists(entries, max_size=5).map(tuple),
    "tuple[tuple[str, str, int], ...]": st.lists(
        st.tuples(
            st.text(max_size=8), st.text(max_size=8), st.integers(0, 999)
        ),
        max_size=3,
    ).map(tuple),
}


def _message_strategy(cls):
    return st.builds(
        cls,
        **{
            field.name: FIELD_STRATEGIES[field.type]
            for field in dataclasses.fields(cls)
        },
    )


messages = st.one_of(
    [_message_strategy(cls) for _, cls in sorted(MESSAGE_TYPES.items())]
)


def binary_roundtrip(value):
    """One value through the binary envelope path and back."""
    framed = encode_envelope_as({"v": value}, CODEC_BINARY)
    return decode_envelope_binary(framed[4:])["v"]


def json_roundtrip(value):
    """One value through the JSON envelope path (tagged) and back."""
    framed = encode_envelope({"v": encode_value(value)})
    return decode_value(decode_frame_body(framed[4:])["v"])


# --------------------------------------------------------------------------
# Round-trip properties
# --------------------------------------------------------------------------


class TestValueProperties:
    @given(value=wire_values)
    def test_binary_roundtrip(self, value):
        assert binary_roundtrip(value) == value

    @given(value=wire_values)
    def test_codecs_agree(self, value):
        assert binary_roundtrip(value) == json_roundtrip(value)

    @given(value=wire_values)
    def test_list_tuple_distinction(self, value):
        got = binary_roundtrip([value, (value,)])
        assert isinstance(got, list)
        assert isinstance(got[1], tuple)

    @given(entry=entries)
    def test_entry_payload_survives(self, entry):
        # Entry equality ignores payloads, so assert it explicitly.
        for got in (binary_roundtrip(entry), json_roundtrip(entry)):
            assert got == entry and got.payload == entry.payload

    def test_dense_entry_reply_shapes(self):
        # The dominant wire shape: a lookup reply's list (and the
        # simulator's tuple) of payload-free dense entries.
        reply = list(make_entries(12))
        assert binary_roundtrip(reply) == reply
        assert isinstance(binary_roundtrip(reply), list)
        assert binary_roundtrip(tuple(reply)) == tuple(reply)
        assert isinstance(binary_roundtrip(tuple(reply)), tuple)
        # Mixed sequences fall back to the generic form, same answer.
        mixed = reply + [Entry("v2", payload="copy")]
        assert binary_roundtrip(mixed) == mixed

    def test_empty_containers(self):
        # Regression: a zero-entry dict must still advance the read
        # cursor (the decoder's position write-back ran only inside
        # the pair loop once).
        for value in ({}, [], (), {"params": {}}, {"a": {}, "b": 1}, [{}, {}]):
            assert binary_roundtrip(value) == value

    def test_unencodable_rejected(self):
        for bad in (object(), {1: "non-string key"}, {"!": "reserved"}):
            with pytest.raises(WireError):
                encode_envelope_as({"v": bad}, CODEC_BINARY)

    def test_prepacked_splices_verbatim(self):
        value = {"deep": [Entry("v3"), (1, "two")]}
        packed = Prepacked(pack_value_bytes(value))
        assert binary_roundtrip([packed, packed]) == [value, value]
        with pytest.raises(WireError):
            encode_value(packed)  # JSON side must reject it


class TestMessageProperties:
    def test_every_message_type_is_generated(self):
        # Completeness: the strategy map must cover every field of
        # every registered message class, or the sweep is partial.
        for name, cls in MESSAGE_TYPES.items():
            for field in dataclasses.fields(cls):
                assert field.type in FIELD_STRATEGIES, (name, field.name)

    @given(message=messages)
    def test_binary_roundtrip(self, message):
        got = binary_roundtrip(message)
        assert got == message and type(got) is type(message)

    @given(message=messages)
    def test_codecs_agree(self, message):
        # The JSON path additionally crosses a real json.dumps/loads
        # so both serializations are exercised end to end.
        wire = json.loads(json.dumps(encode_message(message)))
        assert decode_message(wire) == message
        assert binary_roundtrip(message) == decode_message(wire)

    def test_unknown_message_index_is_wire_error(self):
        # A well-formed frame naming a message this side doesn't know
        # is schema drift (WireError → bad-request), not stream rot.
        # Body: {"v": <message #16383>} — dict of 1, key "v", _T_MSG
        # tag (0x0B) with varint index 16383 (0xFF 0x7F).
        body = bytes(
            (BINARY_MAGIC, BINARY_VERSION, 0, 0x08, 1, 1, ord("v"), 0x0B, 0xFF, 0x7F)
        )
        with pytest.raises(WireError):
            decode_envelope_binary(body)


# --------------------------------------------------------------------------
# Envelopes and hostile frames
# --------------------------------------------------------------------------


class TestBinaryEnvelopes:
    @given(
        op=st.sampled_from([name for name in BINARY_OPS if name]),
        body=st.dictionaries(
            dict_keys.filter(lambda k: k != "op"), wire_values, max_size=3
        ),
    )
    def test_envelope_roundtrip(self, op, body):
        envelope = {"op": op, **body}
        framed = encode_envelope_as(envelope, CODEC_BINARY)
        assert framed[4] == BINARY_MAGIC
        assert framed[5] == BINARY_VERSION
        assert decode_frame_body(framed[4:]) == envelope

    def test_unregistered_op_rides_in_body(self):
        # Ops outside the opcode table still work (opcode 0, op key
        # stays in the payload) — forward compatibility for new ops.
        envelope = {"op": "someday", "x": 1}
        framed = encode_envelope_as(envelope, CODEC_BINARY)
        assert framed[6] == 0
        assert decode_envelope_binary(framed[4:]) == envelope

    @given(value=wire_values)
    @settings(max_examples=40)
    def test_truncation_always_raises(self, value):
        framed = encode_envelope_as({"v": value}, CODEC_BINARY)
        body = framed[4:]
        for cut in range(len(body)):
            with pytest.raises((FrameError, WireError)):
                decode_envelope_binary(body[:cut])

    @given(
        opener=st.sampled_from(
            [b"\x06\x01", b"\x07\x01", b"\x08\x01\x01k", b"\x09\x01e", b"\x0b\x00"]
        ),
        depth=st.one_of(st.integers(0, 8), st.integers(300, 6000)),
        junk=st.binary(max_size=120),
    )
    @settings(deadline=None)
    def test_garbage_never_escapes(self, opener, depth, junk):
        # Arbitrary bytes after a valid header — behind any depth of
        # one-item lists, tuples, dicts, entry payloads or messages,
        # past the interpreter's recursion limit included — must decode
        # to a dict or raise the codec's own errors, nothing else.
        try:
            got = decode_envelope_binary(
                bytes((BINARY_MAGIC, BINARY_VERSION, 0)) + opener * depth + junk
            )
        except (FrameError, WireError):
            return
        assert isinstance(got, dict)

    @pytest.mark.parametrize(
        "body",
        [
            bytes((BINARY_MAGIC, BINARY_VERSION, 0)) + b"\x06\x01" * 5000 + b"\x00",
            b'{"op":"ping","x":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["binary", "json"],
    )
    def test_nesting_past_the_recursion_limit_is_a_frame_error(self, body):
        with pytest.raises(FrameError, match="nested too deeply"):
            decode_frame_body(body)

    def test_bad_header_rejected(self):
        good = encode_envelope_as({"op": "ping"}, CODEC_BINARY)[4:]
        with pytest.raises(FrameError):  # wrong magic
            decode_envelope_binary(b"\x00" + good[1:])
        with pytest.raises(FrameError):  # future version
            decode_envelope_binary(good[:1] + bytes((BINARY_VERSION + 1,)) + good[2:])
        with pytest.raises(FrameError):  # unknown opcode
            decode_envelope_binary(good[:2] + bytes((0xEE,)) + good[3:])
        with pytest.raises(FrameError):  # trailing bytes
            decode_envelope_binary(good + b"\x00")
        with pytest.raises(FrameError):  # non-dict envelope body
            decode_envelope_binary(bytes((BINARY_MAGIC, BINARY_VERSION, 0, 0x00)))

    def test_oversized_frame_rejected(self):
        with pytest.raises(WireError):
            encode_envelope_as({"v": "x" * (MAX_FRAME + 1)}, CODEC_BINARY)

    def test_frame_sniffing(self):
        binary = encode_envelope_as({"op": "ping"}, CODEC_BINARY)[4:]
        as_json = encode_envelope_as({"op": "ping"}, CODEC_JSON)[4:]
        assert decode_frame_body(binary) == {"op": "ping"}
        assert decode_frame_body(as_json) == {"op": "ping"}
        assert as_json[:1] == b"{"
        with pytest.raises(WireError):
            encode_envelope_as({"op": "ping"}, "zstd")


class TestFastPathEquivalence:
    """The prepacked send/reply shortcuts must be byte-level dialects
    of the generic encoding: whatever they emit, the generic decoder
    must read back as the exact envelope, fast path or not."""

    @given(
        request_id=st.integers(min_value=0, max_value=2**31),
        server=st.one_of(st.integers(-5, 2**20), st.text(max_size=8)),
        key=st.text(max_size=16),
        message=messages,
    )
    def test_send_envelope(self, request_id, server, key, message):
        plain = {
            "op": "send",
            "id": request_id,
            "server": server,
            "key": key,
            "message": message,
        }
        packed = pack_send_envelope(request_id, server, key, message)
        framed = encode_envelope_as(
            {"op": "batch", "requests": [packed]}, CODEC_BINARY
        )
        generic = encode_envelope_as(
            {"op": "batch", "requests": [plain]}, CODEC_BINARY
        )
        assert decode_envelope_binary(framed[4:])["requests"][0] == plain
        assert decode_envelope_binary(generic[4:])["requests"][0] == plain

    @given(request_id=st.integers(min_value=0, max_value=2**31), value=wire_values)
    def test_send_reply(self, request_id, value):
        plain = {"ok": True, "value": value, "id": request_id}
        packed = pack_send_reply(request_id, value)
        framed = encode_envelope_as({"replies": [packed]}, CODEC_BINARY)
        assert decode_envelope_binary(framed[4:])["replies"][0] == plain

    def test_send_envelope_ships_its_own_payload(self):
        # Message equality ignores entry payloads (and 1 == True), so
        # a memo keyed by it used to ship the first call's bytes for
        # every later equal-looking message.
        def shipped(message):
            packed = pack_send_envelope(1, 0, "fixed", message)
            framed = encode_envelope_as(
                {"op": "batch", "requests": [packed]}, CODEC_BINARY
            )
            return decode_frame_body(framed[4:])["requests"][0]["message"]

        for n in (1, 2):
            got = shipped(AddRequest(Entry("x", {"n": n})))
            assert got.entry.payload == {"n": n}
        for target in (1, True, 1):
            got = shipped(LookupRequest(target)).target
            assert got == target and type(got) is type(target)


class TestMemoBounds:
    """The encode memos are capped; a list longer than the cap must not
    pay for every id again on every pack."""

    def test_dense_id_memo_is_not_emptied_under_the_walk(self, monkeypatch):
        matched = []

        class CountingPattern:
            def match(self, text, _match=codec._DENSE_ID.match):
                matched.append(text)
                return _match(text)

        monkeypatch.setattr(codec, "_DENSE_ID", CountingPattern())
        monkeypatch.setattr(codec, "_DENSE_IDX_CACHE", {})
        entries = make_entries(5000)
        first = pack_value_bytes(entries)
        assert len(matched) == 5000
        del matched[:]
        assert pack_value_bytes(entries) == first
        assert len(matched) <= 5000 - codec._CACHE_CAP
        assert len(codec._DENSE_IDX_CACHE) == codec._CACHE_CAP

    def test_entry_memo_is_not_emptied_under_the_walk(self, monkeypatch):
        asked = []

        def counting(entry_id, _dense_index=codec._dense_index):
            asked.append(entry_id)
            return _dense_index(entry_id)

        monkeypatch.setattr(codec, "_dense_index", counting)
        monkeypatch.setattr(codec, "_DENSE_IDX_CACHE", {})
        monkeypatch.setattr(codec, "_ENTRY_ENC_CACHE", {})
        # One id outside the dense universe sends the whole list down
        # the generic per-entry path and its memo.
        entries = [Entry("x")] + make_entries(5000)
        first = pack_value_bytes(entries)
        del asked[:]
        assert pack_value_bytes(entries) == first
        assert len(asked) <= 5001 - codec._CACHE_CAP
        assert len(codec._ENTRY_ENC_CACHE) == codec._CACHE_CAP


class TestStoreBytes:
    """``pack_store_bytes`` is a memo of the generic packer's output for
    one shape, and declines every other."""

    def test_a_dense_store_is_the_generic_bytes(self):
        interner = EntryInterner()
        store = MemoryBackend(make_entries(300), interner=interner)
        other = MemoryBackend(make_entries(300)[::-7], interner=interner)
        for held in (store, other):
            assert pack_store_bytes(held) == pack_value_bytes(held.as_list())
        # the table follows the interner as it grows and the store as it shrinks
        store.add(Entry("v4097"))
        store.discard(Entry("v2"))
        assert pack_store_bytes(store) == pack_value_bytes(store.as_list())
        frame = encode_envelope_as(
            {"ok": True, "value": Prepacked(pack_store_bytes(store))}, CODEC_BINARY
        )
        assert decode_frame_body(frame[4:])["value"] == store.as_list()

    @pytest.mark.parametrize(
        "extra",
        [
            Entry("v7", payload={"host": "h"}),  # a payload rider
            type("Tagged", (Entry,), {})("v7"),  # a subclassed entry
            Entry("v07"),  # not a dense id
            Entry("node-7"),
        ],
    )
    def test_anything_else_is_declined(self, extra):
        store = MemoryBackend(make_entries(5))
        assert pack_store_bytes(store) is not None
        store.add(extra)
        assert pack_store_bytes(store) is None
        store.discard(extra)
        assert pack_store_bytes(store) == pack_value_bytes(store.as_list())

    def test_an_empty_store_is_declined(self):
        assert pack_store_bytes(MemoryBackend()) is None


# --------------------------------------------------------------------------
# Negotiation
# --------------------------------------------------------------------------


class TestNegotiation:
    def test_supported_codecs(self):
        assert CODEC_JSON in SUPPORTED_CODECS  # JSON is mandatory
        assert CODEC_BINARY in SUPPORTED_CODECS

    @pytest.mark.parametrize(
        ("offered", "want"),
        [
            (["binary", "json"], "binary"),
            (["json", "binary"], "json"),  # the peer's preference wins
            (["binary"], "binary"),
            (["json"], "json"),
            (["zstd", "binary"], "binary"),
            (["zstd"], "json"),  # all-unknown offer → mandatory JSON
            ([], "json"),
            (None, "json"),
            ("binary", "json"),  # a bare string is not an offer list
            ([42, None], "json"),
        ],
    )
    def test_negotiate_codec(self, offered, want):
        assert negotiate_codec(offered) == want

    def test_hello_envelope_shape(self):
        hello = hello_envelope()
        assert hello["op"] == "hello"
        assert hello["codecs"] == list(SUPPORTED_CODECS)
        # The hello must itself be expressible as JSON: it is the one
        # envelope that always goes out in the mandatory codec.
        assert json.dumps(hello)


def test_lookup_request_binary_is_compact():
    # The point of the codec: a lookup send is an order of magnitude
    # smaller than its JSON form.
    envelope = {
        "op": "send",
        "id": 12,
        "server": 3,
        "key": "round_robin",
        "message": LookupRequest(8),
    }
    binary = encode_envelope_as(envelope, CODEC_BINARY)
    as_json = encode_envelope({**envelope, "message": encode_message(LookupRequest(8))})
    assert len(binary) < len(as_json) / 2


# --------------------------------------------------------------------------
# The one-buffer frame encoder and the one sender
# --------------------------------------------------------------------------


def _joined(fragments):
    return b"".join(bytes(buffer) for buffer in fragments)


class _StubWriter:
    """A ``StreamWriter`` stand-in with ``write`` and ``drain`` only —
    a sender that reached for ``writelines`` would fail on it."""

    def __init__(self):
        self.written = []
        self.drains = 0

    def write(self, data):
        self.written.append(data)

    async def drain(self):
        self.drains += 1


class TestFragmentEncoder:
    """`encode_envelope_fragments` is the one binary frame encoder:
    a prepacked item is a copy of the bytes the plain value packs to,
    whatever its size."""

    @given(
        request_ids=st.lists(
            st.integers(min_value=0, max_value=2**20), min_size=1, max_size=6
        ),
        value=wire_values,
    )
    @settings(deadline=None)
    def test_prepacked_splices_are_byte_identical(self, request_ids, value):
        requests = [
            pack_send_envelope(rid, rid % 7, "hash", LookupRequest(0))
            for rid in request_ids
        ]
        replies = [pack_send_reply(rid, value) for rid in request_ids]
        envelope = {
            "op": "batch",
            "requests": requests,
            "replies": replies,
            "extra": value,
        }
        flat = _joined(encode_envelope_fragments(envelope))
        # The frame is the flat value packer's bytes for the body,
        # after the 4-byte length and the magic/version/opcode header.
        body = {name: item for name, item in envelope.items() if name != "op"}
        assert flat[7:] == pack_value_bytes(body)
        assert int.from_bytes(flat[:4], "big") == len(flat) - 4
        assert decode_envelope_binary(flat[4:])["op"] == "batch"

    def test_large_prepacked_body_is_the_plain_frame(self):
        entries = tuple(Entry(f"v{i}") for i in range(1, 400))
        reply = pack_send_reply(1, entries)
        plain = {"ok": True, "value": entries, "id": 1}
        fragments = encode_envelope_fragments(
            {"op": "batch", "replies": [reply, reply]}
        )
        assert _joined(fragments) == encode_envelope_as(
            {"op": "batch", "replies": [plain, plain]}, CODEC_BINARY
        )

    def test_small_prepacked_body_is_the_plain_frame(self):
        tiny = pack_send_reply(2, ())
        plain = {"ok": True, "value": (), "id": 2}
        fragments = encode_envelope_fragments({"op": "batch", "replies": [tiny] * 8})
        assert _joined(fragments) == encode_envelope_as(
            {"op": "batch", "replies": [plain] * 8}, CODEC_BINARY
        )

    def test_write_frame_is_one_write_and_one_drain(self):
        envelope = {"op": "ping", "id": 3}
        for codec in (CODEC_JSON, CODEC_BINARY):
            writer = _StubWriter()
            asyncio.run(write_frame(writer, envelope, codec=codec))
            assert writer.drains == 1
            assert [bytes(buffer) for buffer in writer.written] == [
                encode_envelope_as(envelope, codec)
            ]
        # ... and the JSON frame is the legacy encoder's bytes
        assert encode_envelope_as(envelope, CODEC_JSON) == encode_envelope(envelope)
