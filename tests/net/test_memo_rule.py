"""Every memo keyed by a value keeps the rule stated in ``repro.net.codec``.

``Entry.__eq__`` ignores ``payload``, and ``1 == True == 1.0`` hash
alike, so a memo keyed by such values would hand one of them the row
of another.  Each case below feeds its memo the colliding values in
every order and checks each answer against the same computation with
the memo empty.
"""

import itertools

import pytest

import repro.net.codec as codec
from repro.cluster.messages import AddRequest, LookupRequest
from repro.core.entry import Entry
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    WireError,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_message,
    pack_send_envelope,
    pack_value_bytes,
)
from repro.net.service import LookupService, ServiceConfig
from repro.net.sharding import ShardMap

NUMBERS = (1, True, 1.0)
CODEC_MEMOS = (
    "_ENTRY_JSON_CACHE",
    "_ENTRY_ENC_CACHE",
    "_DENSE_IDX_CACHE",
    "_ENTRY_DEC_CACHE",
    "_MSG_ENC_CACHE",
    "_KEY_ENC_CACHE",
    "_TEXT_DEC_CACHE",
)


def _cold(compute):
    """``compute()`` with every codec memo empty; the memos are restored."""
    saved = {name: dict(getattr(codec, name)) for name in CODEC_MEMOS}
    for name in CODEC_MEMOS:
        getattr(codec, name).clear()
    try:
        return compute()
    finally:
        for name, rows in saved.items():
            getattr(codec, name).clear()
            getattr(codec, name).update(rows)


def _exact(value):
    """A comparable form that tells 1, True and 1.0 apart, payloads included."""
    if isinstance(value, Entry):
        return ("Entry", value.entry_id, _exact(value.payload))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_exact(item) for item in value))
    if isinstance(value, (LookupRequest, AddRequest)):
        return (type(value).__name__, _exact(next(iter(vars(value).values()))))
    return (type(value).__name__, value)


def _every_order(values, answer):
    for order in itertools.permutations(values):
        for value in order:
            assert _exact(answer(value)) == _exact(_cold(lambda: answer(value))), value


def _entries_by_id():
    """Same id, different payloads — ``==`` to one another."""
    return [Entry("v1")] + [Entry("v1", payload) for payload in NUMBERS + ("a",)]


def case_entry_json_cache():
    # decode_value shares payload-free entries by id.
    _every_order(
        _entries_by_id(),
        lambda entry: decode_value(
            {"!": "entry", "id": entry.entry_id, "payload": entry.payload}
        ),
    )
    for number in NUMBERS:  # an id is a key only as a str
        with pytest.raises(WireError):
            decode_value({"!": "entry", "id": number, "payload": None})
    assert all(type(key) is str for key in codec._ENTRY_JSON_CACHE)


def _roundtrip(value):
    return decode_frame_body(
        encode_envelope_as({"op": "", "v": value}, CODEC_BINARY)[4:]
    )["v"]


def case_entry_enc_cache():
    # pack_value_bytes of a single entry, dense id and not.
    values = _entries_by_id() + [Entry("w1"), Entry("w1", 1), Entry("w1", True)]
    _every_order(values[:6], lambda entry: (pack_value_bytes(entry), _roundtrip(entry)))
    _every_order(values[4:], lambda entry: (pack_value_bytes(entry), _roundtrip(entry)))
    for number in NUMBERS:
        with pytest.raises((TypeError, AttributeError)):
            pack_value_bytes(Entry(number))
    assert all(type(key) is str for key in codec._ENTRY_ENC_CACHE)


def case_dense_idx_cache():
    # Whole lists: the dense-entries encoding, or the generic fallback.
    lists = [[Entry("v1"), Entry("v2")]] + [
        [Entry("v1", payload), Entry("v2")] for payload in NUMBERS
    ]
    _every_order(
        [tuple(items) for items in lists],
        lambda items: (pack_value_bytes(list(items)), _roundtrip(list(items))),
    )
    assert all(type(key) is str for key in codec._DENSE_IDX_CACHE)


def case_msg_enc_cache():
    messages = [LookupRequest(number) for number in NUMBERS] + [
        AddRequest(entry) for entry in _entries_by_id()
    ]

    def answer(message):
        return _roundtrip(pack_send_envelope(3, 1, "hash", message))["message"]

    _every_order(messages[:4], answer)
    _every_order(messages[3:], answer)
    assert all(
        type(key) is LookupRequest and type(key.target) is int
        for key in codec._MSG_ENC_CACHE
    )


def case_reply_cache_slots():
    service = LookupService(ServiceConfig(server_count=4, entry_count=8, seed=1))
    cache = service.reply_cache

    def send(codec_name, server, target):
        message = LookupRequest(target)
        envelope = {
            "op": "send",
            "server": server,
            "key": "fixed",
            "message": message if codec_name == CODEC_BINARY else encode_message(message),
        }
        wire = decode_frame_body(encode_envelope_as(envelope, codec_name)[4:])
        return service.handle_envelope(wire, raw=codec_name == CODEC_BINARY)

    for codec_name in (CODEC_JSON, CODEC_BINARY):
        assert send(codec_name, 1, 0)["ok"]
    rows, hits = len(cache), cache.hits
    for codec_name in (CODEC_JSON, CODEC_BINARY):
        for server, target in itertools.product((1, True, 1.0), (0, False, 0.0)):
            reply = send(codec_name, server, target)
            assert reply["ok"] is (type(server) is int and type(target) is int)
    assert (len(cache), cache.hits) == (rows, hits + 2)
    # Nor can the writer's hot set sneak a row in under a look-alike key.
    hot = service.export_hot_set()
    for row in hot:
        for index in (3, 4):
            twin = dict(row, slot=list(row["slot"]))
            twin["slot"][index] = float(row["slot"][index])
            assert service.import_hot_set([twin]) == 0
    assert all(
        type(slot[3]) is int and type(slot[4]) is int for slot, _ in cache.export_hot()
    )


def case_shard_map_ranked():
    shards = [f"s{i}" for i in range(12)]
    # Three ring positions (a dict keyed by them would hold one).
    fresh = [ShardMap(shards).home(key, 12) for key in NUMBERS]
    assert len({tuple(ranking) for ranking in fresh}) == 3
    for order in itertools.permutations(range(3)):
        shard_map = ShardMap(shards)
        for index in order:
            assert shard_map.home(NUMBERS[index], 12) == fresh[index], NUMBERS[index]
    assert all(type(key) is str for key in shard_map._ranked)


@pytest.mark.parametrize(
    "case",
    [
        case_entry_json_cache,
        case_entry_enc_cache,
        case_dense_idx_cache,
        case_msg_enc_cache,
        case_reply_cache_slots,
        case_shard_map_ranked,
    ],
    ids=lambda case: case.__name__[len("case_"):],
)
def test_memo_never_shares_a_row_between_lookalikes(case):
    case()
