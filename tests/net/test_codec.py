"""Wire codec: framing, tagged values, and message round-trips."""

import struct

import pytest

from repro.cluster.messages import (
    AddRequest,
    DeleteRequest,
    FetchReplacement,
    LookupRequest,
    MigrateRequest,
    PlaceRequest,
    RemoveWithHead,
    SetCounters,
    StoreSetMessage,
)
from repro.core.entry import Entry, make_entries
from repro.net import codec
from repro.net.codec import (
    MAX_FRAME,
    MESSAGE_TYPES,
    FrameError,
    WireError,
    decode_envelope,
    decode_message,
    decode_value,
    encode_envelope,
    encode_message,
    encode_value,
)


def roundtrip(value):
    return decode_value(encode_value(value))


class TestValueRoundtrip:
    def test_primitives(self):
        for value in (None, True, False, 0, -3, 1.5, "x", ""):
            assert roundtrip(value) == value

    def test_entry_with_and_without_payload(self):
        assert roundtrip(Entry("v1")) == Entry("v1")
        got = roundtrip(Entry("v2", payload="host:9000"))
        assert got == Entry("v2")
        assert got.payload == "host:9000"

    def test_list_and_tuple_distinction_survives(self):
        entries = make_entries(3)
        assert roundtrip(list(entries)) == list(entries)
        got = roundtrip(tuple(entries))
        assert got == tuple(entries)
        assert isinstance(got, tuple)
        assert isinstance(roundtrip([1, (2, 3)])[1], tuple)

    def test_nested_dict(self):
        value = {"a": [Entry("v1")], "b": {"c": (1, 2)}}
        got = roundtrip(value)
        assert got["a"] == [Entry("v1")]
        assert got["b"]["c"] == (1, 2)

    def test_unencodable_values_rejected(self):
        with pytest.raises(WireError):
            encode_value(object())
        with pytest.raises(WireError):
            encode_value({1: "non-string key"})
        with pytest.raises(WireError):
            encode_value({"!": "reserved key"})

    def test_unknown_tag_rejected(self):
        with pytest.raises(WireError):
            decode_value({"!": "mystery"})


class TestEntryMemo:
    """``decode_value`` answers payload-free entries from a memo."""

    def test_roundtrip_is_value_identical_cold_warm_and_just_cleared(self):
        entries = make_entries(40)
        wire = encode_value(tuple(entries))
        codec._ENTRY_JSON_CACHE.clear()
        cold = decode_value(wire)
        warm = decode_value(wire)
        codec._ENTRY_JSON_CACHE.clear()
        cleared = decode_value(wire)
        for got in (cold, warm, cleared):
            assert got == tuple(entries)
            assert all(entry.payload is None for entry in got)
        # Warm answers are the memo's own instances, as on the binary side.
        assert all(a is b for a, b in zip(cold, warm))

    def test_payload_entry_is_fresh_and_never_memoised(self):
        codec._ENTRY_JSON_CACHE.clear()
        wire = encode_value(Entry("v7", payload={"host": "h:1"}))
        first, second = decode_value(wire), decode_value(wire)
        assert first == Entry("v7") and first.payload == {"host": "h:1"}
        assert first is not second
        assert codec._ENTRY_JSON_CACHE == {}
        # ... and a memoised payload-free twin does not shadow it.
        bare = decode_value(encode_value(Entry("v7")))
        assert bare.payload is None
        assert decode_value(wire).payload == {"host": "h:1"}

    @pytest.mark.parametrize("bad_id", [7, ["v1"], None, True, 1.5, {"a": 1}])
    def test_non_string_entry_id_rejected(self, bad_id):
        with pytest.raises(WireError):
            decode_value({"!": "entry", "id": bad_id, "payload": None})
        with pytest.raises(WireError):
            decode_value({"!": "entry", "id": bad_id, "payload": "p"})

    def test_missing_entry_id_rejected(self):
        with pytest.raises(KeyError):
            decode_value({"!": "entry", "payload": None})

    def test_memo_honours_cache_cap(self, monkeypatch):
        monkeypatch.setattr(codec, "_CACHE_CAP", 8)
        codec._ENTRY_JSON_CACHE.clear()
        for entry in make_entries(100):
            assert decode_value(encode_value(entry)) == entry
            assert len(codec._ENTRY_JSON_CACHE) <= 8
        assert codec._ENTRY_JSON_CACHE


class TestMessageRoundtrip:
    MESSAGES = [
        LookupRequest(5),
        LookupRequest(0),
        AddRequest(Entry("v1")),
        DeleteRequest(Entry("v2", payload={"url": "u"})),
        PlaceRequest(tuple(make_entries(4))),
        StoreSetMessage(tuple(make_entries(2))),
        RemoveWithHead(Entry("v3"), head=7),
        SetCounters(head=2, tail=9),
        MigrateRequest(Entry("v4"), head=1, new_position=6),
        FetchReplacement(exclude_ids=("v1", "v2")),
    ]

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=[type(m).__name__ for m in MESSAGES]
    )
    def test_roundtrip(self, message):
        assert decode_message(encode_message(message)) == message

    def test_registry_covers_every_concrete_type(self):
        from repro.cluster.messages import known_message_types

        assert set(MESSAGE_TYPES) == set(known_message_types())

    def test_unknown_type_rejected(self):
        with pytest.raises(WireError):
            decode_message({"!": "msg", "type": "Nope", "fields": {}})

    def test_field_mismatch_rejected(self):
        wire = encode_message(LookupRequest(5))
        wire["fields"]["extra"] = 1
        with pytest.raises(WireError):
            decode_message(wire)
        with pytest.raises(WireError):
            decode_message({"!": "msg", "type": "LookupRequest", "fields": {}})

    def test_messages_encode_as_values_too(self):
        assert decode_value(encode_value(LookupRequest(3))) == LookupRequest(3)


class TestFraming:
    def test_envelope_roundtrip(self):
        framed = encode_envelope({"op": "ping", "n": 3})
        (length,) = struct.unpack(">I", framed[:4])
        assert length == len(framed) - 4
        assert decode_envelope(framed[4:]) == {"op": "ping", "n": 3}

    def test_malformed_body_rejected(self):
        with pytest.raises(FrameError):
            decode_envelope(b"not json")
        with pytest.raises(FrameError):
            decode_envelope(b'[1, 2]')  # envelopes must be objects

    def test_unjsonable_envelope_rejected(self):
        with pytest.raises(WireError):
            encode_envelope({"op": object()})

    def test_max_frame_bound(self):
        assert MAX_FRAME == 16 * 1024 * 1024
