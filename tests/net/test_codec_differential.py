"""The JSON and binary request paths agree on every envelope.

For any request envelope — the golden wire corpus, then generated ones,
hostile ones included (``True`` for ``1``, NaN and infinities, ints
past 64 bits, digit strings, non-ASCII keys, every registered message
type, nested and oversize batches) — a fresh log-backed service on each
codec must agree on accept vs refuse, on the error code, on the reply
(modulo encoding), and on the post-state: store masks, journal records,
reply-cache size and cluster RNG.  A refused request leaves all four
untouched.  A value the binary codec cannot encode at all (an entry id
that is not a string) is refused by the JSON path where an op reads
it; in a field no op reads it is ignored, as any such field is.
"""

import math
import random
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.messages import (
    AddRequest,
    DeleteRequest,
    LookupRequest,
    PlaceRequest,
)
from repro.core.entry import Entry
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    MESSAGE_TYPES,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_value,
)
from repro.net.service import DEFAULT_SCHEMES, MAX_BATCH, LookupService, ServiceConfig

from .test_wire_golden import _message, _value, build_corpus

SCHEMES = sorted(DEFAULT_SCHEMES)
SERVERS = 16


def _state(service):
    return (
        [[s.store(key).mask for s in service.cluster.servers] for key in SCHEMES],
        service.journal.log_records,
        len(service.reply_cache),
        service.cluster.rng.getstate(),
    )


def _comparable(value):
    """A reply as plain data that tells 1, True and 1.0 apart, without
    the human-readable ``detail`` texts and each service's own data dir."""
    if isinstance(value, dict):
        return {
            k: _comparable(v) for k, v in value.items() if k not in ("detail", "data_dir")
        }
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_comparable(item) for item in value])
    if isinstance(value, Entry):
        return ("Entry", value.entry_id, _comparable(value.payload))
    if isinstance(value, float) and math.isnan(value):
        return ("float", "nan")
    return (type(value).__name__, value)


def _run(codec, envelope):
    """``envelope`` through ``codec`` on a fresh service: (reply, state
    before, state after), or None when the codec cannot encode it."""
    binary = codec == CODEC_BINARY
    try:
        frame = encode_envelope_as(envelope if binary else encode_value(envelope), codec)
    except (TypeError, ValueError, AttributeError, RecursionError):
        return None
    with tempfile.TemporaryDirectory() as data_dir:
        service = LookupService(
            ServiceConfig(
                server_count=SERVERS, entry_count=12, seed=3, store="log",
                data_dir=data_dir,
            )
        )
        try:
            # One cached row per scheme, so a stray invalidation shows.
            for key in SCHEMES:
                warm = {"op": "send", "server": 0, "key": key, "message": LookupRequest(0)}
                wire = encode_envelope_as(warm if binary else encode_value(warm), codec)
                assert service.handle_envelope(decode_frame_body(wire[4:]), raw=binary)["ok"]
            before = _state(service)
            reply = service.handle_envelope(decode_frame_body(frame[4:]), raw=binary)
            after = _state(service)
        finally:
            service.journal.close()
    reply = decode_frame_body(encode_envelope_as(reply, codec)[4:])
    return (reply if binary else decode_value(reply)), before, after


def _refused(reply):
    return reply.get("ok") is False and reply.get("error") == "bad-request"


def _binary_encodable(fields):
    try:
        encode_envelope_as(fields, CODEC_BINARY)
    except (TypeError, ValueError, AttributeError, RecursionError):
        return False
    return True


def check_paths_agree(envelope):
    over_json = _run(CODEC_JSON, envelope)
    over_binary = _run(CODEC_BINARY, envelope)
    assert over_json is not None, envelope  # every generated value is JSON-encodable
    reply, before, after = over_json
    if _refused(reply):
        assert after == before
    if over_binary is None:
        # Only a non-string entry id defeats the binary encoder.  A
        # field no op reads is ignored (docs/protocols.md §5), so the
        # JSON path answers as it does without every field carrying
        # one — where the op reads such a field, that is a refusal.
        if envelope.get("op") != "batch":
            readable = {k: v for k, v in envelope.items() if _binary_encodable({k: v})}
            assert len(readable) < len(envelope)
            if not _refused(reply):
                stripped, *states = _run(CODEC_JSON, readable)
                assert _comparable(stripped) == _comparable(reply), reply
                assert states == [before, after]
                check_paths_agree(readable)
        return
    binary_reply, binary_before, binary_after = over_binary
    assert binary_before == before
    assert _comparable(binary_reply) == _comparable(reply)
    assert binary_after == after


def test_golden_corpus_requests_agree():
    requests = [plain for _, plain in build_corpus() if "op" in plain]
    assert len(requests) >= 100
    for envelope in requests:
        check_paths_agree(envelope)


# --------------------------------------------------------------------------
# Generated envelopes
# --------------------------------------------------------------------------

HOSTILE = [
    True, False, None, -1, SERVERS, 2**64, -(2**70), 1.0, 0.0, -0.5, math.nan,
    math.inf, -math.inf, "1", "v1", "", "ключ", [1], (1,), {"a": 1},
]
golden = st.randoms(use_true_random=False)
ids = st.one_of(st.integers(-5, 2**66), st.text(max_size=3), st.sampled_from(HOSTILE))
numbers = st.one_of(st.integers(-3, 20), st.sampled_from(HOSTILE))
payloads = st.one_of(
    st.none(),
    st.sampled_from(HOSTILE),
    golden.map(_value),
    st.recursive(st.integers(), lambda inner: st.lists(inner, max_size=2), max_leaves=40),
)
entry_ids = st.one_of(
    st.integers(1, 40).map("v{}".format),
    st.sampled_from(["v01", "w2", "zz", "ключ", "🙂", "", "v0"]),
)
entries = st.builds(Entry, entry_ids, payloads)
# An entry the binary encoder cannot carry: its id is not a string.
bad_ids = st.builds(Entry, st.sampled_from([7, True, 1.0, None]))
messages = st.one_of(
    st.builds(LookupRequest, numbers),
    st.builds(AddRequest, st.one_of(entries, bad_ids, st.sampled_from(HOSTILE))),
    st.builds(DeleteRequest, st.one_of(entries, bad_ids, st.sampled_from(HOSTILE))),
    st.builds(
        PlaceRequest,
        st.one_of(
            st.lists(entries, max_size=4).map(tuple),
            st.lists(entries, max_size=2),
            st.sampled_from(HOSTILE),
        ),
    ),
    st.builds(
        _message, golden, st.sampled_from([MESSAGE_TYPES[n] for n in sorted(MESSAGE_TYPES)])
    ),
    st.sampled_from(HOSTILE),
)
keys = st.one_of(st.sampled_from(SCHEMES), st.sampled_from(["nope", "HASH", 1, None, ("hash",)]))
servers = st.one_of(st.integers(0, SERVERS - 1), st.sampled_from(HOSTILE))
# Fields no op reads: ignored, however deep or odd.
extras = st.fixed_dictionaries(
    {}, optional={"x": golden.map(_value), "schlüssel": st.sampled_from(HOSTILE)}
)


def _with(base, optional):
    return st.builds(
        lambda env, extra: {**extra, **env},
        st.fixed_dictionaries(base, optional={"id": ids, **optional}),
        extras,
    )


sends = _with({"op": st.just("send")}, {"server": servers, "key": keys, "message": messages})
singles = st.one_of(
    sends,
    _with({"op": st.just("verify")}, {"key": keys}),
    _with(
        {"op": st.just("hello")},
        {
            "codecs": st.one_of(
                st.lists(st.sampled_from(["binary", "json", "msgpack"]), max_size=3),
                st.lists(st.sampled_from(HOSTILE), max_size=2),
                st.sampled_from(HOSTILE),
            )
        },
    ),
    _with(
        {"op": st.sampled_from(["ping", "info", "membership", "heartbeat", "launch", 1])},
        {"message": messages},
    ),
)
batches = st.one_of(
    _with(
        {"op": st.just("batch")},
        {
            "requests": st.one_of(
                st.lists(
                    st.one_of(
                        singles,
                        st.just({"op": "batch", "requests": []}),
                        st.sampled_from(HOSTILE),
                    ),
                    max_size=6,
                ),
                st.sampled_from(HOSTILE),
            )
        },
    ),
    st.just({"op": "batch", "requests": [{"op": "ping"}] * (MAX_BATCH + 1)}),
)


@settings(max_examples=100)
@given(st.one_of(sends, singles, batches))
@example({"op": "ping", "id": 0, "message": AddRequest(Entry(7))})
@example({"op": "send", "id": 0, "server": 1, "key": "hash", "message": AddRequest(Entry(7))})
def test_generated_envelopes_agree(envelope):
    check_paths_agree(envelope)


def test_deep_values_agree():
    # Nested well past anything a client sends, inside the decoders' limits.
    deep = 1
    for _ in range(200):
        deep = [deep]
    check_paths_agree({"op": "ping", "x": deep})
    check_paths_agree(
        {
            "op": "send", "server": 1, "key": "full_replication",
            "message": AddRequest(Entry("zz-deep", {"p": deep})),
        }
    )
    check_paths_agree(
        {
            "op": "send", "server": 1, "key": "full_replication",
            "message": AddRequest(Entry("zz-deep", (deep,))),
        }
    )


def test_a_random_mix_of_writes_stays_in_step():
    # Twenty accepted writes in a row, each checked on fresh services,
    # so the golden builders' odd-but-valid payloads are exercised.
    rng = random.Random(11)
    for index in range(20):
        payload = _value(rng) if index % 2 else None
        message = (AddRequest if index % 3 else DeleteRequest)(Entry(f"v{index + 1}", payload))
        check_paths_agree(
            {"op": "send", "id": index, "server": rng.randrange(SERVERS),
             "key": SCHEMES[index % 5], "message": message}
        )
