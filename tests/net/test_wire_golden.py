"""A golden wire corpus: the bytes of both codecs, pinned by one hash.

A seeded corpus of envelopes — every opcode, generic replies, batch
requests and replies mixing prepacked items (``pack_send_envelope``,
``pack_send_reply``, a cached-body ``Prepacked(pack_value_bytes(v))``)
with plain dicts, dense bodies on both sides of every varint boundary,
payload entries, non-dense ids, nested containers, floats, negative
and > 64-bit ints, non-ASCII keys — is encoded as a binary frame, as
the binary frame of its JSON-tagged twin, and as that twin's JSON
frame.  One sha256 over every frame is committed below.

The constant was computed on the tree *before* the fragment writer was
deleted from ``repro.net.codec`` (PR 20) and must never be edited by a
change that claims to leave the wire alone: a refactor of either
encoder passes this file unmodified or it changed a wire byte.  It
must also pass under every supported interpreter (3.11, 3.12, 3.13) —
nothing here may depend on hash order or on ``random`` methods whose
draw sequence differs between versions.
"""

import dataclasses
import hashlib
import random

from repro.cluster.messages import Heartbeat, LookupRequest
from repro.core.entry import Entry
from repro.net.codec import (
    BINARY_OPS,
    CODEC_BINARY,
    CODEC_JSON,
    MESSAGE_TYPES,
    Prepacked,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_envelope_fragments,
    encode_value,
    hello_envelope,
    pack_send_envelope,
    pack_send_reply,
    pack_value_bytes,
)

GOLDEN_SHA256 = "d532e292fc4bbf0207c4fbb714151c50e577c9dd8ceb09fde7e9431260522adf"
GOLDEN_FRAMES = 921
GOLDEN_BYTES = 1276706

SCHEMES = ("full_replication", "fixed", "random_server", "round_robin", "hash")
DENSE_SIZES = (0, 10, 127, 128, 200, 400)
TEXTS = ("", "a", "round_robin", "päyload", "キー", "x" * 30, "tab\tnew\nline", "🙂")
KEYS = ("a", "id", "value", "clé", "ключ", "k" * 25, "", "op2")
BIG_INTS = (2**64, -(2**64) - 1, 2**70 + 12345, -(2**100), 2**63, -(2**63))


def _int(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(-200, 200)
    if kind == 1:
        return rng.randrange(-(2**40), 2**40)
    if kind == 2:
        return BIG_INTS[rng.randrange(len(BIG_INTS))]
    return rng.randrange(0, 2**14)


def _float(rng):
    return (rng.random() - 0.5) * 10 ** rng.randrange(-3, 12)


def _entry(rng):
    kind = rng.randrange(5)
    if kind <= 1:
        return Entry(f"v{rng.randrange(1, 40000)}")
    if kind == 2:  # looks dense, is not
        return Entry(("v01", "v1x", "w2", "V3", "note", "v0", "vé")[rng.randrange(7)])
    if kind == 3:
        return Entry(f"v{rng.randrange(1, 500)}", _scalar(rng))
    return Entry(f"host-{rng.randrange(100)}", {"addr": _text(rng), "port": _int(rng)})


def _text(rng):
    return TEXTS[rng.randrange(len(TEXTS))]


def _scalar(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return _int(rng)
    if kind == 3:
        return _float(rng)
    return _text(rng)


def _dense(rng, count):
    start = rng.randrange(1, 300)
    return [Entry(f"v{start + i}") for i in range(count)]


def _value(rng, depth=0):
    kind = rng.randrange(9 if depth < 3 else 5)
    if kind <= 2:
        return _scalar(rng)
    if kind <= 4:
        return _entry(rng)
    if kind == 5:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == 7:
        body = _dense(rng, rng.randrange(1, 12))
        return body if rng.random() < 0.5 else tuple(body)
    return {
        KEYS[rng.randrange(len(KEYS))]: _value(rng, depth + 1)
        for _ in range(rng.randrange(4))
    }


_FIELDS = {
    "Entry": _entry,
    "int": _int,
    "str": _text,
    "tuple[str, ...]": lambda rng: tuple(_text(rng) for _ in range(rng.randrange(4))),
    "tuple[Entry, ...]": lambda rng: tuple(_entry(rng) for _ in range(rng.randrange(5))),
    "tuple[tuple[str, str, int], ...]": lambda rng: tuple(
        (_text(rng), _text(rng), rng.randrange(1000)) for _ in range(rng.randrange(3))
    ),
}


def _message(rng, cls=None):
    if cls is None:
        names = sorted(MESSAGE_TYPES)
        cls = MESSAGE_TYPES[names[rng.randrange(len(names))]]
    return cls(
        **{f.name: _FIELDS[f.type](rng) for f in dataclasses.fields(cls)}
    )


def _send(rng, request_id, message):
    """A batched send as (prepacked item, the plain dict it stands for)."""
    server = rng.randrange(16) if rng.random() < 0.8 else f"s{rng.randrange(4)}"
    key = SCHEMES[rng.randrange(len(SCHEMES))]
    plain = {
        "op": "send",
        "id": request_id,
        "server": server,
        "key": key,
        "message": message,
    }
    return pack_send_envelope(request_id, server, key, message), plain


def _reply_body(rng, index):
    """A lookup reply body: dense on every size class, or anything else."""
    kind = rng.randrange(4)
    if kind <= 1:
        body = _dense(rng, DENSE_SIZES[index % len(DENSE_SIZES)])
        return body if kind == 0 else tuple(body)
    if kind == 2:
        return _dense(rng, rng.randrange(1, 20)) + [_entry(rng)]
    return _value(rng)


def build_corpus():
    """``(envelope, plain)`` pairs, deterministic from the seed alone.

    ``envelope`` is what a sender hands the encoder (it may hold
    :class:`Prepacked` items); ``plain`` is the same envelope with
    every prepacked item rebuilt as the plain dict or value it stands
    for — the same object when nothing was prepacked.
    """
    rng = random.Random(20)
    corpus = []

    def add(envelope, plain=None):
        corpus.append((envelope, envelope if plain is None else plain))

    # Every opcode, bare and with an id, plus an op outside the table.
    for op in BINARY_OPS[1:] + ("someday",):
        add({"op": op})
        add({"op": op, "id": _int(rng), "x": _value(rng)})
    add(hello_envelope())
    add(hello_envelope((CODEC_JSON,), batch=False))
    for scheme in SCHEMES:
        add({"op": "verify", "key": scheme})
    for _ in range(6):
        add({"op": "heartbeat", "message": _message(rng, Heartbeat)})
    # Single sends: every message type at least twice.
    for name in sorted(MESSAGE_TYPES) * 2:
        add(
            {
                "op": "send",
                "server": rng.randrange(16),
                "key": SCHEMES[rng.randrange(len(SCHEMES))],
                "message": _message(rng, MESSAGE_TYPES[name]),
            }
        )
    # Generic replies.
    for index in range(80):
        reply = {"ok": True, "value": _reply_body(rng, index)}
        if rng.random() < 0.5:
            reply["id"] = _int(rng) if rng.random() < 0.7 else _text(rng)
        add(reply)
    for code in ("unavailable", "dropped", "bad-request", "internal"):
        add({"ok": False, "error": code, "detail": _text(rng), "id": rng.randrange(99)})
    for _ in range(40):
        add({_text(rng) + "k": _value(rng), "ключ": _value(rng)})
    # Batch requests: prepacked sends mixed with plain dicts.
    for index in range(60):
        items, plains = [], []
        for slot in range(rng.randrange(1, 9)):
            if rng.random() < 0.6:
                message = LookupRequest((0, 8, 400)[rng.randrange(3)])
            else:
                message = _message(rng)
            packed, plain = _send(rng, index * 16 + slot, message)
            plains.append(plain)
            items.append(packed if rng.random() < 0.7 else dict(plain))
        add(
            {"op": "batch", "id": index, "requests": items},
            {"op": "batch", "id": index, "requests": plains},
        )
    # Batch replies: pack_send_reply, cached bodies, plain dicts, errors.
    for index in range(60):
        items, plains = [], []
        for slot in range(rng.randrange(1, 9)):
            request_id = index * 16 + slot
            value = _reply_body(rng, index + slot)
            plain = {"ok": True, "value": value, "id": request_id}
            kind = rng.randrange(4)
            if kind == 0:
                item = pack_send_reply(request_id, value)
            elif kind == 1:  # a cache hit on the single-send path
                item = {**plain, "value": Prepacked(pack_value_bytes(value))}
            elif kind == 2:  # a cache hit inside a batch
                item = pack_send_reply(request_id, Prepacked(pack_value_bytes(value)))
            else:
                item = dict(plain)
            if rng.random() < 0.1:
                item = plain = {
                    "ok": False,
                    "error": "unavailable",
                    "detail": "server 3 did not process the message",
                    "id": request_id,
                }
            items.append(item)
            plains.append(plain)
        add(
            {"ok": True, "value": items, "id": index},
            {"ok": True, "value": plains, "id": index},
        )
    return corpus


def _frames(envelope, plain):
    """Every frame one corpus item contributes to the hash."""
    binary = encode_envelope_as(envelope, CODEC_BINARY)
    tagged = encode_value(plain)
    return (
        binary,
        encode_envelope_as(tagged, CODEC_BINARY),
        encode_envelope_as(tagged, CODEC_JSON),
    )


def test_corpus_covers_what_it_claims():
    corpus = build_corpus()
    assert len(corpus) >= 300
    assert set(BINARY_OPS[1:]) <= {envelope.get("op") for envelope, _ in corpus}
    # Reply bodies, top-level and inside batch replies, reach every
    # dense size class (one- and two-byte counts and indices).
    sizes = set()
    for _, plain in corpus:
        value = plain.get("value")
        subs = value if isinstance(value, list) else []
        for reply in [plain] + [sub for sub in subs if isinstance(sub, dict)]:
            if isinstance(reply.get("value"), (list, tuple)):
                sizes.add(len(reply["value"]))
    assert set(DENSE_SIZES) <= sizes
    assert sum(envelope is not plain for envelope, plain in corpus) >= 100


def test_golden_hash():
    digest = hashlib.sha256()
    frames = total = 0
    for envelope, plain in build_corpus():
        for frame in _frames(envelope, plain):
            digest.update(frame)
            frames += 1
            total += len(frame)
    assert (frames, total) == (GOLDEN_FRAMES, GOLDEN_BYTES)
    assert digest.hexdigest() == GOLDEN_SHA256


def test_frame_list_joins_to_the_flat_frame():
    for envelope, _ in build_corpus():
        assert b"".join(encode_envelope_fragments(envelope)) == encode_envelope_as(
            envelope, CODEC_BINARY
        )


def test_prepacked_items_are_the_plain_frame():
    for envelope, plain in build_corpus():
        if envelope is not plain:
            assert encode_envelope_as(envelope, CODEC_BINARY) == encode_envelope_as(
                plain, CODEC_BINARY
            )


def test_every_frame_decodes_to_its_envelope():
    for envelope, plain in build_corpus():
        binary, tagged_binary, tagged_json = _frames(envelope, plain)
        assert decode_frame_body(binary[4:]) == plain
        assert decode_frame_body(tagged_binary[4:]) == plain
        assert decode_value(decode_frame_body(tagged_json[4:])) == plain


if __name__ == "__main__":
    # For interpreters that have no pytest installed:
    #   PYTHONPATH=src python3.13 tests/net/test_wire_golden.py
    import sys

    for name, check in sorted(globals().items()):
        if name.startswith("test_"):
            check()
    print(f"ok {sys.version.split()[0]}: golden wire corpus {GOLDEN_SHA256[:16]}…")
