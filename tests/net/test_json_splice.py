"""A spliced JSON reply is the tagged reply's frame, byte for byte.

The service answers a lookup on a JSON connection with
:func:`~repro.net.codec.json_value`: a list of plain entries becomes one
:class:`~repro.net.codec.JsonText` joined from per-entry text, which
:func:`~repro.net.codec.encode_envelope` splices into the envelope.
Whatever the value — the golden wire corpus, generated entry lists with
non-ASCII and escaped ids, empty lists, riders that take the generic
walk, whole-store replies out of the reply cache — the frame must equal
``encode_envelope_as(encode_value(...), "json")``.  The client's decode
of such a list takes one pass and shares entries by id, and that memo
stops growing at its cap instead of thrashing.
"""

from hypothesis import given
from hypothesis import strategies as st
import pytest

import repro.net.codec as codec
from repro.cluster.messages import LookupRequest
from repro.core.entry import Entry
from repro.net.codec import (
    CODEC_JSON,
    JsonText,
    WireError,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_message,
    encode_value,
    json_value,
)
from repro.net.service import LookupService, ServiceConfig

from .test_wire_golden import build_corpus


def _tagged_frame(envelope):
    return encode_envelope_as(encode_value(envelope), CODEC_JSON)


def _spliced(reply):
    """``reply`` as the service builds it for a JSON connection: its
    value through :func:`json_value`, and each batch sub-reply's too."""
    value = reply["value"]
    if type(value) is list and value and all(
        type(sub) is dict and "ok" in sub for sub in value
    ):
        value = [
            dict(sub, value=json_value(sub["value"])) if "value" in sub else sub
            for sub in value
        ]
    else:
        value = json_value(value)
    return dict(reply, value=value)


class Rider(Entry):
    """An Entry subclass: the splice must leave it to the generic walk."""


def test_every_corpus_envelope_splices_to_its_tagged_frame():
    replies = spliced = 0
    for _, plain in build_corpus():
        if "value" in plain and "ok" in plain:
            frame = encode_envelope_as(_spliced(plain), CODEC_JSON)
            assert frame == _tagged_frame(plain), plain
            replies += 1
        for item in plain.values():
            value = json_value(item)
            spliced += type(value) is JsonText
            assert encode_envelope_as(
                {"ok": True, "value": value, "id": 7}, CODEC_JSON
            ) == _tagged_frame({"ok": True, "value": item, "id": 7})
    assert replies >= 140 and spliced >= 30


IDS = st.text(
    alphabet=st.one_of(
        st.characters(codec="utf-8"),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f é🙂'),
    ),
    max_size=8,
)
ENTRIES = st.lists(
    st.one_of(
        st.builds(Entry, IDS),
        st.builds(lambda i: Entry(f"v{i}"), st.integers(1, 5000)),
    ),
    max_size=20,
)
RIDERS = st.one_of(
    st.builds(Entry, IDS, st.one_of(st.integers(), st.text(max_size=4), st.booleans())),
    st.builds(Rider, IDS),
)


@given(
    entries=ENTRIES,
    rider=st.one_of(st.none(), RIDERS),
    at=st.integers(0, 20),
    request_id=st.one_of(st.none(), st.integers(), IDS),
)
def test_entry_lists_splice_to_the_tagged_frame(entries, rider, at, request_id):
    if rider is not None:
        entries.insert(min(at, len(entries)), rider)
    reply = {"ok": True, "value": entries}
    if request_id is not None:
        reply["id"] = request_id
    value = json_value(entries)
    assert (type(value) is JsonText) is (rider is None)
    assert encode_envelope_as(dict(reply, value=value), CODEC_JSON) == _tagged_frame(reply)
    # The same list as one sub-reply of a batch, next to a refusal.
    batch = {"ok": True, "value": [dict(reply), {"ok": False, "error": "dropped"}]}
    assert encode_envelope_as(_spliced(batch), CODEC_JSON) == _tagged_frame(batch)
    # And back: the client's decode sees the entries (payloads too).
    body = encode_envelope_as(dict(reply, value=value), CODEC_JSON)[4:]
    decoded = decode_value(decode_frame_body(body)["value"])
    assert [(type(e), e.entry_id, e.payload) for e in decoded] == [
        (Entry, e.entry_id, e.payload) for e in entries
    ]
    assert decode_value(value) == decoded


@pytest.mark.parametrize("key", ["full_replication", "fixed", "hash"])
def test_whole_store_replies_from_the_cache_are_the_tagged_frame(key):
    config = ServiceConfig(server_count=6, entry_count=60, seed=3)
    service = LookupService(config)
    twin = LookupService(ServiceConfig(server_count=6, entry_count=60, seed=3, cache_size=0))
    for server in range(6):
        envelope = {
            "op": "send",
            "id": server,
            "server": server,
            "key": key,
            "message": encode_message(LookupRequest(0)),
        }
        expected = _tagged_frame(twin.handle_envelope(dict(envelope), raw=True))
        for _ in range(2):  # the miss that fills the row, then the hit
            reply = service.handle_envelope(dict(envelope))
            assert encode_envelope_as(reply, CODEC_JSON) == expected
    assert service.reply_cache.hits == 6


def test_hot_set_rows_carry_spliced_text_across_the_bus():
    service = LookupService(ServiceConfig(server_count=4, entry_count=20, seed=1))
    envelope = {
        "op": "send",
        "server": 1,
        "key": "fixed",
        "message": encode_message(LookupRequest(0)),
    }
    reply = service.handle_envelope(dict(envelope))
    rows = service.export_hot_set()
    assert [type(row["body"]) for row in rows] == [str]
    fresh = LookupService(ServiceConfig(server_count=4, entry_count=20, seed=1))
    assert fresh.import_hot_set(rows) == 1
    assert fresh.handle_envelope(dict(envelope)) == reply
    assert fresh.reply_cache.hits == 1


def _tagged(entry_id, payload=None):
    return {"!": "entry", "id": entry_id, "payload": payload}


def test_list_decode_keeps_the_item_by_item_answers():
    wire = [_tagged("v1"), _tagged("v2", {"port": 1}), _tagged("v1"), 3, [_tagged("x")]]
    decoded = decode_value(wire)
    assert decoded[0] is decoded[2] is decode_value(_tagged("v1"))
    assert decoded[1].payload == {"port": 1}
    assert decoded[3:] == [3, [Entry("x")]]
    for bad in (1, True, 1.0, None, ["v1"]):
        with pytest.raises(WireError, match="entry id must be a string"):
            decode_value([_tagged("v1"), _tagged(bad)])
    with pytest.raises(KeyError):
        decode_value([{"!": "entry"}])


def test_a_full_entry_memo_stops_growing_instead_of_thrashing():
    cache = codec._ENTRY_JSON_CACHE
    saved = dict(cache)
    cache.clear()
    try:
        wire = [_tagged(f"cap-{i}") for i in range(codec._CACHE_CAP + 1000)]
        first, second = decode_value(wire), decode_value(wire)
        assert len(cache) == codec._CACHE_CAP
        shared = [a is b for a, b in zip(first, second)]
        assert all(shared[: codec._CACHE_CAP]) and not any(shared[codec._CACHE_CAP :])
        assert first == second
    finally:
        cache.clear()
        cache.update(saved)
