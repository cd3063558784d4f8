"""The wire format: length-prefixed JSON frames over a byte stream.

Framing
-------
Each frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON.  Length prefixes keep the protocol
self-delimiting over TCP's byte stream without sentinel scanning; the
:data:`MAX_FRAME` bound (16 MiB) rejects corrupt prefixes before they
turn into giant allocations.

Value encoding
--------------
JSON has no tuples, no :class:`~repro.core.entry.Entry`, and no typed
messages, so non-JSON values are *tagged*: an object with a single
``"!"`` key naming the type.

- ``{"!": "entry", "id": ..., "payload": ...}`` — an Entry.  Payloads
  must themselves be wire-encodable; opaque application payloads that
  are not JSON-serializable are rejected at encode time rather than
  silently mangled.
- ``{"!": "tuple", "items": [...]}`` — a tuple (lists pass through as
  JSON arrays, so round-trips preserve the list/tuple distinction
  that :class:`~repro.cluster.messages.Message` fields rely on).
- ``{"!": "msg", "type": "LookupRequest", "fields": {...}}`` — a
  typed message, by dataclass field name.  The decode registry is
  built from the live :class:`~repro.cluster.messages.Message` class
  hierarchy (the :func:`~repro.cluster.messages.known_message_types`
  pattern), so new message types become wire-addressable without
  codec changes.

Envelopes
---------
A request frame is ``{"op": ..., ...}`` and a reply frame is
``{"ok": true, "value": ...}`` or ``{"ok": false, "error": <code>,
"detail": <human text>}``.  This module only encodes and decodes them:
which ops and fields a request may carry is the service's request
schema (:data:`repro.net.service.OP_SCHEMA`, ``docs/protocols.md`` §5,
with the error codes).  :func:`heartbeat_envelope` /
:func:`decode_heartbeat` are the typed faces of the ``heartbeat`` op.

Binary codec
------------
JSON is the *mandatory fallback*, not the only wire form.  A peer may
negotiate the compact binary codec (``"op": "hello"``, see
``docs/protocols.md`` §5) and then send struct-packed frames instead:
the same 4-byte length prefix, but a body that starts with the
:data:`BINARY_MAGIC` byte (which can never open a JSON envelope — a
JSON body always starts with ``{``), a version byte, and an opcode
byte naming one of the well-known envelope ops, followed by the
envelope fields as tagged binary values (varint-packed ints and
lengths, raw UTF-8, IEEE-754 doubles, dense entry indices for the
``v<i>`` entries the interner hands out).  Every frame self-describes:
:func:`read_frame` sniffs the first body byte, so a stream may mix
codecs and negotiation only governs what each side *sends*.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import re
import struct
from typing import TYPE_CHECKING, Any, Optional

from repro.core.entry import Entry
from repro.cluster.messages import Heartbeat, LookupRequest, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.storage import StorageBackend

#: Frames above this size are rejected (corrupt length prefix guard).
MAX_FRAME = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class WireError(ValueError):
    """A value or message cannot be encoded/decoded for the wire."""


class FrameError(ConnectionError):
    """The byte stream violated the framing protocol."""


# --------------------------------------------------------------------------
# Value encoding
# --------------------------------------------------------------------------


def _message_registry() -> dict[str, type]:
    registry: dict[str, type] = {}
    stack = [Message]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            registry[sub.__name__] = sub
            stack.append(sub)
    return registry


#: Wire name -> message class, from the live hierarchy.  Built once at
#: import; all concrete message types live in ``cluster.messages``.
MESSAGE_TYPES: dict[str, type] = _message_registry()


def encode_value(value: Any) -> Any:
    """Encode one Python value into its JSON-safe wire form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Entry):
        return {"!": "entry", "id": value.entry_id, "payload": encode_value(value.payload)}
    if isinstance(value, tuple):
        return {"!": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, Message):
        return encode_message(value)
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str) or key == "!":
                raise WireError(f"unencodable dict key: {key!r}")
            out[key] = encode_value(item)
        return out
    raise WireError(f"unencodable value of type {type(value).__name__}: {value!r}")


def decode_value(wire: Any) -> Any:
    """Decode one wire value back into its Python form.

    Already-decoded values (entries, messages, tuples — what the
    binary codec yields) pass through unchanged, so drivers can call
    this on any frame's payload without knowing which codec carried it.
    """
    if isinstance(wire, dict):
        tag = wire.get("!")
        if tag is None:
            return {k: decode_value(v) for k, v in wire.items()}
        if tag == "entry":
            entry_id = wire["id"]
            if not isinstance(entry_id, str):
                raise WireError(f"entry id must be a string: {entry_id!r}")
            payload = wire.get("payload")
            if payload is not None:
                return Entry(entry_id, decode_value(payload))
            # Payload-free entries are shared by id, as on the binary side.
            entry = _ENTRY_JSON_CACHE.get(entry_id)
            if entry is None:
                if len(_ENTRY_JSON_CACHE) >= _CACHE_CAP:
                    _ENTRY_JSON_CACHE.clear()
                entry = _ENTRY_JSON_CACHE[entry_id] = Entry(entry_id)
            return entry
        if tag == "tuple":
            return tuple(decode_value(v) for v in wire["items"])
        if tag == "msg":
            return decode_message(wire)
        raise WireError(f"unknown wire tag: {tag!r}")
    if wire is None or isinstance(wire, (bool, int, float, str)):
        return wire
    if isinstance(wire, (Entry, Message)):
        return wire
    if isinstance(wire, tuple):
        return tuple(decode_value(v) for v in wire)
    if isinstance(wire, list):
        return [decode_value(v) for v in wire]
    raise WireError(f"undecodable wire value: {wire!r}")


def encode_message(message: Message) -> dict[str, Any]:
    """Encode a typed cluster message as a tagged wire object."""
    fields = {
        f.name: encode_value(getattr(message, f.name))
        for f in dataclasses.fields(message)
    }
    return {"!": "msg", "type": type(message).__name__, "fields": fields}


def decode_message(wire: Any) -> Message:
    """Decode a tagged wire object back into its message dataclass."""
    if not isinstance(wire, dict):
        raise WireError(f"undecodable wire message: {wire!r}")
    name = wire.get("type")
    cls = MESSAGE_TYPES.get(name)
    if cls is None:
        raise WireError(f"unknown message type: {name!r}")
    raw = wire.get("fields", {})
    if not isinstance(raw, dict):
        raise WireError(f"malformed fields for {name}: {raw!r}")
    declared = {f.name for f in dataclasses.fields(cls)}
    if set(raw) != declared:
        raise WireError(
            f"{name} fields mismatch: got {sorted(raw)}, want {sorted(declared)}"
        )
    return cls(**{k: decode_value(v) for k, v in raw.items()})


def heartbeat_envelope(heartbeat: "Heartbeat") -> dict[str, Any]:
    """The request envelope carrying one membership heartbeat."""
    return {"op": "heartbeat", "message": encode_message(heartbeat)}


def decode_heartbeat(wire: Any) -> "Heartbeat":
    """Decode a wire value that must be a :class:`Heartbeat`.

    The membership pump feeds heartbeats straight into the sans-IO
    failure detector, so a peer answering the heartbeat op with any
    other message type is a protocol violation, not a quiet no-op.
    """
    message = decode_message(wire) if isinstance(wire, dict) else wire
    if not isinstance(message, Heartbeat):
        raise WireError(
            f"expected a Heartbeat, got {type(message).__name__}: {message!r}"
        )
    return message


# --------------------------------------------------------------------------
# Binary codec
# --------------------------------------------------------------------------

#: Codec names as they appear in hello/info capability exchanges.
CODEC_JSON = "json"
CODEC_BINARY = "binary"
#: Preference order offered by a binary-capable peer; JSON is the
#: mandatory fallback every peer must speak.
SUPPORTED_CODECS: tuple[str, ...] = (CODEC_BINARY, CODEC_JSON)

#: First byte of every binary frame body.  JSON envelope bodies always
#: start with ``{`` (0x7B), so one byte of sniffing disambiguates.
BINARY_MAGIC = 0xB1
#: Binary wire format version carried in every frame header.
BINARY_VERSION = 1

#: Well-known envelope ops, indexed by the header opcode byte.  Opcode
#: 0 is "generic": the envelope dict that follows is complete as-is
#: (replies, or ops newer than this table).  For opcodes >= 1 the
#: ``"op"`` key is stripped at encode time and restored at decode time.
BINARY_OPS: tuple[str, ...] = (
    "",
    "ping",
    "info",
    "send",
    "verify",
    "heartbeat",
    "membership",
    "hello",
    "batch",
)
_OPCODE_BY_OP = {name: code for code, name in enumerate(BINARY_OPS) if name}

# Value tags.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_TUPLE = 0x07
_T_DICT = 0x08
_T_ENTRY = 0x09
_T_ENTRY_INDEX = 0x0A
_T_MSG = 0x0B
#: A tuple whose items are all payload-free dense entries, shipped as
#: ``count`` + one varint per entry — the dominant shape in lookup
#: replies, collapsed to a single tag so neither side pays per-entry
#: dispatch.  The ``_LIST`` twin is the same encoding decoded back to
#: a list, preserving the list/tuple round-trip distinction.
_T_ENTRIES = 0x0C
_T_ENTRIES_LIST = 0x0D

_DOUBLE = struct.Struct(">d")

#: Dense wire index for the canonical ``v<i>`` entries the placement
#: interner hands out (:func:`repro.core.entry.make_entries` naming):
#: a payload-free ``Entry("v123")`` ships as one varint instead of a
#: tagged id string.  Matches strictly — ``v01`` or ``v1x`` ship as
#: ordinary entries.
_DENSE_ID = re.compile(r"v([1-9][0-9]*)$")

#: Message classes in stable wire order (sorted by name) with their
#: dataclass fields precomputed — binary messages ship a type index
#: plus field values in declaration order, no field names.
_MESSAGE_WIRE_ORDER: list[tuple[str, type, tuple[str, ...]]] = [
    (name, cls, tuple(f.name for f in dataclasses.fields(cls)))
    for name, cls in sorted(MESSAGE_TYPES.items())
]
_MESSAGE_WIRE_INDEX = {
    name: index for index, (name, _, _) in enumerate(_MESSAGE_WIRE_ORDER)
}


#: Hot-path memos.  Lookup traffic is dominated by the same small
#: universe of interned ``v<i>`` entries, the same handful of dict
#: keys, and the same short strings over and over; caching their
#: packed/decoded forms turns the per-value recursion into one dict
#: hit.  All are size-capped so adversarial streams cannot grow them
#: without bound.
#:
#: The rule for every memo keyed by a value — these, the service's
#: ``ReplyCache`` slots, ``ShardMap._ranked`` — is that two keys may be
#: equal only if the values mean the same thing.  Two equalities in
#: this code do not: ``Entry.__eq__`` ignores ``payload``, and
#: ``1 == True == 1.0`` (which also hash alike).  So an entry is a key
#: only while it is payload-free, or by its id, which is a key only as
#: a ``str``; a number is a key only once its type is exact (the
#: service's request schema checks server ids and lookup targets,
#: :func:`pack_send_envelope` memoizes only an ``int`` target).
#: ``tests/net/test_memo_rule.py`` holds every memo to it.
_CACHE_CAP = 4096
_ENTRY_ENC_CACHE: dict[str, bytes] = {}
#: entry_id -> dense index, or -1 when the id is not dense (memoizes
#: the regex so the all-dense tuple probe costs one dict hit per item).
_DENSE_IDX_CACHE: dict[str, int] = {}
_ENTRY_DEC_CACHE: dict[int, Entry] = {}
#: entry_id -> the shared payload-free Entry :func:`decode_value` answers.
_ENTRY_JSON_CACHE: dict[str, Entry] = {}
_KEY_ENC_CACHE: dict[str, bytes] = {}
_TEXT_DEC_CACHE: dict[bytes, str] = {}
#: Request-path message memo (see :func:`pack_send_envelope`): packed
#: bytes per ``LookupRequest``, the one message a batch round repeats
#: thousands of times.  Nothing else is memoized: update messages
#: compare equal across different entry payloads, and reply messages
#: are all distinct and would only thrash it.
_MSG_ENC_CACHE: dict[Message, bytes] = {}


class Prepacked:
    """Already-encoded binary value bytes, copied verbatim by the packer.

    Lets a caller that emits the same subtree many times (the client's
    batched sends, the reply cache's bodies) pay the generic encoding
    walk once.  Only valid inside binary envelopes — the JSON encoder
    rejects it.  ``data`` is one producer-owned ``bytes`` or
    ``bytearray`` that nothing touches after wrapping it here.
    """

    __slots__ = ("data",)

    def __init__(self, data: "bytes | bytearray") -> None:
        self.data = data


def pack_value_bytes(value: Any) -> bytes:
    """One value's binary encoding, for wrapping in :class:`Prepacked`."""
    out = bytearray()
    _pack_value(value, out)
    return bytes(out)


def _dense_fragment(entry_id: str) -> Optional[bytes]:
    """A dense id's varint as :func:`_pack_dense_entries` emits it, else None.

    The binary wire's fragment encoder (see
    :meth:`~repro.core.interning.EntryInterner.fragments`).
    """
    index = _dense_index(entry_id)
    if index < 0:
        return None
    out = bytearray()
    _pack_varint(index, out)
    return bytes(out)


def pack_store_bytes(store: "StorageBackend") -> Optional[bytes]:
    """``pack_value_bytes(store.as_list())`` from the store's indices.

    One ``join`` over the interner's fragment table instead of a walk
    over the entries.  ``None`` — use the generic packer — unless the
    list would take the dense-entries encoding: a non-empty store of
    exact-type, payload-free entries with dense ids.
    """
    parts = store.fragments(_dense_fragment)
    if not parts or None in parts:
        return None
    out = bytearray((_T_ENTRIES_LIST,))
    _pack_varint(len(parts), out)
    out += b"".join(parts)
    return bytes(out)


def _dense_index(entry_id: str) -> int:
    """The ``v<i>`` dense index for an id, or -1; memoized.

    A full memo stops growing rather than emptying itself: this runs
    inside the walk of a reply, and clearing there made every list
    longer than the cap re-match all of its ids on every pack.
    """
    index = _DENSE_IDX_CACHE.get(entry_id)
    if index is None:
        match = _DENSE_ID.match(entry_id)
        index = -1 if match is None else int(match.group(1))
        if len(_DENSE_IDX_CACHE) < _CACHE_CAP:
            _DENSE_IDX_CACHE[entry_id] = index
    return index


def _pack_varint(value: int, out: bytearray) -> None:
    """Unsigned LEB128."""
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _zigzag_big(value: int) -> int:
    # Arbitrary-precision zigzag: Python ints are unbounded, and the
    # shift-based form above only folds correctly within 64 bits.
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _pack_str(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    _pack_varint(len(raw), out)
    out += raw


def _pack_dense_entries(value: Any, out: bytearray, tag: int) -> bool:
    """Emit ``value`` as ``tag`` (:data:`_T_ENTRIES` or its list twin)
    if every item qualifies.

    Qualifying means: payload-free :class:`Entry` with a dense ``v<i>``
    id.  Returns ``False`` without touching ``out`` otherwise, so the
    caller falls back to the generic sequence encoding.
    """
    indices = []
    append = indices.append
    get = _DENSE_IDX_CACHE.get
    for item in value:
        # Exact-type check: a subclassed Entry simply falls back to the
        # (equally correct) generic sequence encoding.
        if type(item) is not Entry or item.payload is not None:
            return False
        index = get(item.entry_id)
        if index is None:
            index = _dense_index(item.entry_id)
        if index < 0:
            return False
        append(index)
    out.append(tag)
    count = len(indices)
    if count < 0x80:
        out.append(count)
    else:
        _pack_varint(count, out)
    for index in indices:
        if index < 0x80:
            out.append(index)
        else:
            _pack_varint(index, out)
    return True


def _packed_str(text: str) -> bytes:
    """``_pack_str`` output (length prefix + UTF-8), memoized.

    Backs both dict keys and the send fast path's recurring server /
    lookup-key strings.
    """
    packed = _KEY_ENC_CACHE.get(text)
    if packed is None:
        buf = bytearray()
        _pack_str(text, buf)
        if len(_KEY_ENC_CACHE) >= _CACHE_CAP:
            _KEY_ENC_CACHE.clear()
        packed = _KEY_ENC_CACHE[text] = bytes(buf)
    return packed


def _pack_value(value: Any, out: bytearray) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        _pack_varint(_zigzag_big(value), out)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _DOUBLE.pack(value)
    elif isinstance(value, str):
        out.append(_T_STR)
        _pack_str(value, out)
    elif isinstance(value, Entry):
        if value.payload is None:
            packed = _ENTRY_ENC_CACHE.get(value.entry_id)
            if packed is None:
                buf = bytearray()
                index = _dense_index(value.entry_id)
                if index >= 0:
                    buf.append(_T_ENTRY_INDEX)
                    _pack_varint(index, buf)
                else:
                    buf.append(_T_ENTRY)
                    _pack_str(value.entry_id, buf)
                    buf.append(_T_NONE)
                packed = bytes(buf)
                if len(_ENTRY_ENC_CACHE) < _CACHE_CAP:  # as _dense_index
                    _ENTRY_ENC_CACHE[value.entry_id] = packed
            out += packed
        else:
            out.append(_T_ENTRY)
            _pack_str(value.entry_id, out)
            _pack_value(value.payload, out)
    elif isinstance(value, tuple):
        if value and _pack_dense_entries(value, out, _T_ENTRIES):
            return
        out.append(_T_TUPLE)
        _pack_varint(len(value), out)
        for item in value:
            _pack_value(item, out)
    elif type(value) is Prepacked:
        out += value.data
    elif isinstance(value, list):
        if value and _pack_dense_entries(value, out, _T_ENTRIES_LIST):
            return
        out.append(_T_LIST)
        _pack_varint(len(value), out)
        for item in value:
            _pack_value(item, out)
    elif isinstance(value, Message):
        index = _MESSAGE_WIRE_INDEX.get(type(value).__name__)
        if index is None:
            raise WireError(f"unregistered message type: {type(value).__name__}")
        out.append(_T_MSG)
        _pack_varint(index, out)
        for field_name in _MESSAGE_WIRE_ORDER[index][2]:
            _pack_value(getattr(value, field_name), out)
    elif isinstance(value, dict):
        # JSON-tagged wire forms (the service's pure-dispatch handlers
        # emit them) re-compact to their native binary encodings, so a
        # binary connection never ships `{"!": "entry", ...}` objects.
        tag = value.get("!")
        if tag is not None:
            _pack_tagged(tag, value, out)
            return
        out.append(_T_DICT)
        _pack_varint(len(value), out)
        for key, item in value.items():
            if not isinstance(key, str):
                raise WireError(f"unencodable dict key: {key!r}")
            out += _packed_str(key)
            _pack_value(item, out)
    else:
        raise WireError(
            f"unencodable value of type {type(value).__name__}: {value!r}"
        )


def _pack_tagged(tag: Any, value: dict, out: bytearray) -> None:
    """Compact one JSON-tagged wire object into its binary form.

    Packs straight from the tagged dict — no intermediate
    ``Entry``/``Message`` objects — since a tagged form's nested
    values are themselves tagged and the recursion lands back here.
    """
    if tag == "entry":
        entry_id = value["id"]
        payload = value.get("payload")
        if payload is None and isinstance(entry_id, str):
            _pack_value(Entry(entry_id), out)  # hits the entry memo
            return
        if not isinstance(entry_id, str):
            raise WireError(f"unencodable entry id: {entry_id!r}")
        out.append(_T_ENTRY)
        _pack_str(entry_id, out)
        _pack_value(payload, out)
    elif tag == "tuple":
        items = value["items"]
        out.append(_T_TUPLE)
        _pack_varint(len(items), out)
        for item in items:
            _pack_value(item, out)
    elif tag == "msg":
        index = _MESSAGE_WIRE_INDEX.get(value["type"])
        if index is None:
            raise WireError(f"unknown message type: {value['type']!r}")
        fields = value["fields"]
        out.append(_T_MSG)
        _pack_varint(index, out)
        for field_name in _MESSAGE_WIRE_ORDER[index][2]:
            _pack_value(fields[field_name], out)
    else:
        raise WireError(f"unknown wire tag: {tag!r}")


#: Constant pieces of the batched ``send`` sub-envelope: the
#: ``_T_DICT`` header, the ``"op": "send"`` pair, and the other four
#: key strings, so :func:`pack_send_envelope` appends constants
#: instead of re-encoding the same five keys per request.
_SEND_PREFIX = (
    bytes((_T_DICT, 5))
    + _packed_str("op")
    + bytes((_T_STR,))
    + _packed_str("send")
)
_SEND_KEY_ID = _packed_str("id")
_SEND_KEY_SERVER = _packed_str("server")
_SEND_KEY_KEY = _packed_str("key")
_SEND_KEY_MESSAGE = _packed_str("message")


def pack_send_envelope(
    request_id: int, server: Any, key: Any, message: Message
) -> Prepacked:
    """One batched ``send`` sub-envelope, packed once into binary bytes.

    A :class:`LookupRequest` is memoized — a batch round repeats the
    same few across hundreds of sub-envelopes — and nothing else is:
    message equality ignores entry payloads, so a memo keyed by it
    would ship one add's payload with the next.  Only valid on a
    binary connection — the result is a :class:`Prepacked` and the
    JSON encoder rejects it.
    """
    # An exact int target, by the memo rule above.
    memo = type(message) is LookupRequest and type(message.target) is int
    packed = _MSG_ENC_CACHE.get(message) if memo else None
    if packed is None:
        packed = pack_value_bytes(message)
        if memo:
            if len(_MSG_ENC_CACHE) >= _CACHE_CAP:
                _MSG_ENC_CACHE.clear()
            _MSG_ENC_CACHE[message] = packed
    out = bytearray(_SEND_PREFIX)
    out += _SEND_KEY_ID
    out.append(_T_INT)
    _pack_varint(_zigzag_big(request_id), out)
    out += _SEND_KEY_SERVER
    if type(server) is int:
        out.append(_T_INT)
        _pack_varint(_zigzag_big(server), out)
    elif type(server) is str:
        out.append(_T_STR)
        out += _packed_str(server)
    else:
        _pack_value(server, out)
    out += _SEND_KEY_KEY
    if type(key) is str:
        out.append(_T_STR)
        out += _packed_str(key)
    else:
        _pack_value(key, out)
    out += _SEND_KEY_MESSAGE
    out += packed
    return Prepacked(out)


#: Constant pieces of the ok ``send`` sub-reply the batch handler
#: emits per lookup: ``{"ok": True, "value": <message>, "id": <int>}``.
_REPLY_PREFIX = (
    bytes((_T_DICT, 3))
    + _packed_str("ok")
    + bytes((_T_TRUE,))
    + _packed_str("value")
)
_REPLY_KEY_ID = _packed_str("id")


def pack_send_reply(request_id: int, value: Any) -> Prepacked:
    """One ok batched ``send`` sub-reply, packed into binary bytes.

    The server's batch loop uses this on binary connections so each
    sub-reply dict skips the generic dict walk.  Reply values are
    (unlike request messages) almost always distinct, so they are
    deliberately not memoized.
    """
    out = bytearray(_REPLY_PREFIX)
    _pack_value(value, out)
    out += _REPLY_KEY_ID
    out.append(_T_INT)
    _pack_varint(_zigzag_big(request_id), out)
    return Prepacked(out)


#: Exact byte prefixes of the canonical send sub-envelope and ok
#: sub-reply (what :func:`pack_send_envelope` / :func:`pack_send_reply`
#: emit).  The unpacker sniffs these to decode the two dominant frame
#: shapes without the generic per-key dict walk; any mismatch falls
#: back to the generic path, so foreign encoders lose nothing.
_SEND_FAST = (
    _packed_str("op")
    + bytes((_T_STR,))
    + _packed_str("send")
    + _packed_str("id")
    + bytes((_T_INT,))
)
_SEND_FAST_SERVER = _packed_str("server") + bytes((_T_INT,))
_SEND_FAST_KEY = _packed_str("key") + bytes((_T_STR,))
_SEND_FAST_MESSAGE = _packed_str("message")
_REPLY_FAST = _packed_str("ok") + bytes((_T_TRUE,)) + _packed_str("value")
_REPLY_FAST_ID = _packed_str("id") + bytes((_T_INT,))


class _Unpacker:
    """Bounds-checked reader over one binary frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def byte(self) -> int:
        if self.pos >= len(self.data):
            raise FrameError("binary frame truncated")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def varint(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 1024 * 7:
                # Python ints are unbounded, but a kilobyte of varint
                # continuation bytes is garbage, not data.
                raise FrameError("malformed varint")

    def raw(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise FrameError("binary frame truncated")
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def text(self) -> str:
        raw = self.raw(self.varint())
        cached = _TEXT_DEC_CACHE.get(raw)
        if cached is not None:
            return cached
        try:
            decoded = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"malformed utf-8 in binary frame: {exc}") from exc
        if len(raw) <= 24:
            # Short strings are almost always recurring protocol atoms
            # (dict keys, server ids, scheme names) — intern them.
            if len(_TEXT_DEC_CACHE) >= _CACHE_CAP:
                _TEXT_DEC_CACHE.clear()
            _TEXT_DEC_CACHE[raw] = decoded
        return decoded

    def _fast_send(self, pos: int) -> dict[str, Any] | None:
        """Decode a canonical send sub-envelope from ``pos``.

        ``pos`` sits just past the matched :data:`_SEND_FAST` prefix
        (i.e. on the request id's varint).  Returns ``None`` — without
        any observable side effect — when the remaining bytes deviate
        from the canonical layout.
        """
        data = self.data
        self.pos = pos
        raw = self.varint()
        request_id = (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
        pos = self.pos
        if not data.startswith(_SEND_FAST_SERVER, pos):
            return None
        self.pos = pos + len(_SEND_FAST_SERVER)
        raw = self.varint()
        server = (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
        pos = self.pos
        if not data.startswith(_SEND_FAST_KEY, pos):
            return None
        self.pos = pos + len(_SEND_FAST_KEY)
        key = self.text()
        pos = self.pos
        if not data.startswith(_SEND_FAST_MESSAGE, pos):
            return None
        self.pos = pos + len(_SEND_FAST_MESSAGE)
        message = self.value()
        return {
            "op": "send",
            "id": request_id,
            "server": server,
            "key": key,
            "message": message,
        }

    def _fast_reply(self, pos: int) -> dict[str, Any] | None:
        """Decode a canonical ok sub-reply from ``pos``.

        ``pos`` sits just past the matched :data:`_REPLY_FAST` prefix
        (i.e. on the value).  On a layout mismatch returns ``None``;
        ``self.pos`` may then be stale, which is safe because every
        caller re-seeds it before the next read.
        """
        self.pos = pos
        value = self.value()
        pos = self.pos
        data = self.data
        if not data.startswith(_REPLY_FAST_ID, pos):
            return None
        self.pos = pos + len(_REPLY_FAST_ID)
        raw = self.varint()
        request_id = (raw >> 1) if not raw & 1 else -((raw + 1) >> 1)
        return {"ok": True, "value": value, "id": request_id}

    def value(self) -> Any:
        # THE decode hot path: every byte of every binary frame flows
        # through here, so the tag byte and the varint that almost
        # every tag carries are read inline from locals instead of
        # through byte()/varint() method calls (which profile as the
        # single largest decode cost at batch throughput).
        data = self.data
        end = len(data)
        pos = self.pos
        if pos >= end:
            raise FrameError("binary frame truncated")
        tag = data[pos]
        pos += 1
        if tag == _T_NONE:
            self.pos = pos
            return None
        if tag == _T_TRUE:
            self.pos = pos
            return True
        if tag == _T_FALSE:
            self.pos = pos
            return False
        if tag == _T_FLOAT:
            self.pos = pos
            return _DOUBLE.unpack(self.raw(_DOUBLE.size))[0]
        if tag > _T_ENTRIES_LIST:
            raise FrameError(f"unknown binary value tag: {tag:#x}")
        # Every remaining tag opens with one varint (value, length,
        # count, or index) — read it once, inline.
        if pos >= end:
            raise FrameError("binary frame truncated")
        byte = data[pos]
        pos += 1
        if byte < 0x80:
            first = byte
        else:
            first = byte & 0x7F
            shift = 7
            while True:
                if pos >= end:
                    raise FrameError("binary frame truncated")
                byte = data[pos]
                pos += 1
                first |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 1024 * 7:
                    raise FrameError("malformed varint")
        if tag == _T_INT:
            self.pos = pos
            return (first >> 1) if not first & 1 else -((first + 1) >> 1)
        if tag == _T_STR:
            str_end = pos + first
            if str_end > end:
                raise FrameError("binary frame truncated")
            raw = data[pos:str_end]
            self.pos = str_end
            cached = _TEXT_DEC_CACHE.get(raw)
            if cached is not None:
                return cached
            try:
                decoded = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FrameError(
                    f"malformed utf-8 in binary frame: {exc}"
                ) from exc
            if first <= 24:
                if len(_TEXT_DEC_CACHE) >= _CACHE_CAP:
                    _TEXT_DEC_CACHE.clear()
                _TEXT_DEC_CACHE[raw] = decoded
            return decoded
        if tag == _T_DICT:
            # Canonical-shape fast paths (see _SEND_FAST/_REPLY_FAST):
            # on a miss they leave the local ``pos`` untouched and the
            # generic walk below re-reads from it.
            if first == 5 and data.startswith(_SEND_FAST, pos):
                fast = self._fast_send(pos + len(_SEND_FAST))
                if fast is not None:
                    return fast
            elif first == 3 and data.startswith(_REPLY_FAST, pos):
                fast = self._fast_reply(pos + len(_REPLY_FAST))
                if fast is not None:
                    return fast
            self.pos = pos
            out = {}
            for _ in range(first):
                # Two statements: the key is read before its value.
                key = self.text()
                out[key] = self.value()
            return out
        if tag == _T_ENTRIES or tag == _T_ENTRIES_LIST:
            cache = _ENTRY_DEC_CACHE
            entries = []
            append = entries.append
            for _ in range(first):
                # Inlined varint: dense indices are 1-2 bytes in any
                # realistic universe, and this loop decodes the bulk
                # of every lookup reply.
                if pos >= end:
                    raise FrameError("binary frame truncated")
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    index = byte
                else:
                    index = byte & 0x7F
                    shift = 7
                    while True:
                        if pos >= end:
                            raise FrameError("binary frame truncated")
                        byte = data[pos]
                        pos += 1
                        index |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift > 1024 * 7:
                            raise FrameError("malformed varint")
                entry = cache.get(index)
                if entry is None:
                    if len(cache) >= _CACHE_CAP:
                        cache.clear()
                    entry = cache[index] = Entry(f"v{index}")
                append(entry)
            self.pos = pos
            return entries if tag == _T_ENTRIES_LIST else tuple(entries)
        if tag == _T_MSG:
            if first >= len(_MESSAGE_WIRE_ORDER):
                raise WireError(f"unknown binary message index: {first}")
            _, cls, field_names = _MESSAGE_WIRE_ORDER[first]
            self.pos = pos
            # Positional construction: dataclass __init__ order is
            # exactly the wire field order.
            return cls(*[self.value() for _ in field_names])
        if tag == _T_LIST:
            self.pos = pos
            return [self.value() for _ in range(first)]
        if tag == _T_TUPLE:
            self.pos = pos
            return tuple(self.value() for _ in range(first))
        if tag == _T_ENTRY:
            str_end = pos + first
            if str_end > end:
                raise FrameError("binary frame truncated")
            try:
                entry_id = data[pos:str_end].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FrameError(f"malformed utf-8 in binary frame: {exc}") from exc
            self.pos = str_end
            return Entry(entry_id, self.value())
        if tag == _T_ENTRY_INDEX:
            self.pos = pos
            entry = _ENTRY_DEC_CACHE.get(first)
            if entry is None:
                if len(_ENTRY_DEC_CACHE) >= _CACHE_CAP:
                    _ENTRY_DEC_CACHE.clear()
                entry = _ENTRY_DEC_CACHE[first] = Entry(f"v{first}")
            return entry
        raise FrameError(f"unknown binary value tag: {tag:#x}")


def encode_envelope_fragments(obj: dict[str, Any]) -> list:
    """Serialize one envelope as a framed binary buffer, in a list of one.

    The one binary frame encoder: four reserved length bytes, the
    magic/version/opcode header, then the body through the one value
    packer — :class:`Prepacked` items are copied in verbatim.  The
    buffer is fresh per frame and never pooled: 3.12+ transports keep
    a view of what ``write`` is given, so it must not be reused.
    Raises :class:`WireError` before anything could be written.
    """
    out = bytearray(_LENGTH.size)
    out.append(BINARY_MAGIC)
    out.append(BINARY_VERSION)
    body = dict(obj)
    opcode = _OPCODE_BY_OP.get(body.get("op"), 0)
    if opcode:
        del body["op"]
    out.append(opcode)
    _pack_value(body, out)
    total = len(out) - _LENGTH.size
    if total > MAX_FRAME:
        raise WireError(f"frame too large: {total} bytes")
    _LENGTH.pack_into(out, 0, total)
    return [out]


def decode_envelope_binary(body: bytes) -> dict[str, Any]:
    """Parse one binary frame body into an envelope dict.

    Structural garbage (truncation, bad tags, trailing bytes, nesting
    past the interpreter's recursion limit) raises
    :class:`FrameError`; a well-formed frame naming an unknown message
    raises :class:`WireError` so the service can answer ``bad-request``
    instead of dropping the connection.
    """
    unpacker = _Unpacker(body)
    if unpacker.byte() != BINARY_MAGIC:
        raise FrameError("not a binary frame (bad magic byte)")
    version = unpacker.byte()
    if version != BINARY_VERSION:
        raise FrameError(f"unsupported binary codec version: {version}")
    opcode = unpacker.byte()
    if opcode >= len(BINARY_OPS):
        raise FrameError(f"unknown binary opcode: {opcode}")
    try:
        envelope = unpacker.value()
    except RecursionError as exc:
        raise FrameError("frame nested too deeply") from exc
    if not isinstance(envelope, dict):
        raise FrameError(
            f"binary frame body must be an object, got {type(envelope).__name__}"
        )
    if unpacker.pos != len(body):
        raise FrameError(
            f"trailing bytes in binary frame: {len(body) - unpacker.pos}"
        )
    if opcode:
        envelope["op"] = BINARY_OPS[opcode]
    return envelope


def negotiate_codec(offered: Any) -> str:
    """Pick the wire codec for a peer's hello ``codecs`` offer.

    The first offered codec this side supports wins; an empty, bogus,
    or all-unknown offer falls back to JSON (the mandatory codec), so
    negotiation can never strand a connection without a wire format.
    """
    if isinstance(offered, (list, tuple)):
        for name in offered:
            if name in SUPPORTED_CODECS:
                return name
    return CODEC_JSON


def hello_envelope(
    codecs: tuple[str, ...] = SUPPORTED_CODECS, *, batch: bool = True
) -> dict[str, Any]:
    """The capability-exchange request a negotiating client opens with."""
    return {"op": "hello", "codecs": list(codecs), "batch": batch}


# --------------------------------------------------------------------------
# Envelopes
# --------------------------------------------------------------------------


def encode_envelope(obj: dict[str, Any]) -> bytes:
    """Serialize one request/reply envelope into a framed byte string."""
    try:
        body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireError(f"unencodable envelope: {exc}") from exc
    if len(body) > MAX_FRAME:
        raise WireError(f"frame too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


def decode_envelope(body: bytes) -> dict[str, Any]:
    """Parse one frame body into an envelope dict."""
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame body: {exc}") from exc
    except RecursionError as exc:
        raise FrameError("frame nested too deeply") from exc
    if not isinstance(obj, dict):
        raise FrameError(f"frame body must be an object, got {type(obj).__name__}")
    return obj


def decode_frame_body(body: bytes) -> dict[str, Any]:
    """Decode one frame body, sniffing the codec from its first byte.

    Binary bodies open with :data:`BINARY_MAGIC`; everything else is
    parsed as JSON (whose envelope bodies always open with ``{``).  An
    empty body is malformed in either codec.
    """
    if body[:1] == bytes((BINARY_MAGIC,)):
        return decode_envelope_binary(body)
    return decode_envelope(body)


def encode_envelope_as(obj: dict[str, Any], codec: str) -> bytes:
    """Serialize one envelope under the named codec."""
    if codec == CODEC_BINARY:
        return bytes(encode_envelope_fragments(obj)[0])
    if codec == CODEC_JSON:
        return encode_envelope(obj)
    raise WireError(f"unknown codec: {codec!r}")


# --------------------------------------------------------------------------
# Asyncio stream helpers
# --------------------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one framed envelope; ``None`` on clean end-of-stream.

    A connection that closes *between* frames is a normal hangup; one
    that closes mid-frame raises :class:`FrameError`.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid length prefix") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME:
        raise FrameError(f"frame length {length} exceeds {MAX_FRAME}")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid frame") from exc
    return decode_frame_body(body)


async def write_frame(
    writer: asyncio.StreamWriter, obj: dict[str, Any], *, codec: str = CODEC_JSON
) -> None:
    """Write one framed envelope (in ``codec``) and wait for flow control.

    The one sender: one ``write``, one ``drain``.  An unencodable or
    oversized envelope raises :class:`WireError` before a byte is
    written, so the stream stays in sync.
    """
    writer.write(encode_envelope_as(obj, codec))
    await writer.drain()


__all__ = [
    "BINARY_MAGIC",
    "BINARY_OPS",
    "BINARY_VERSION",
    "CODEC_BINARY",
    "CODEC_JSON",
    "MAX_FRAME",
    "MESSAGE_TYPES",
    "SUPPORTED_CODECS",
    "FrameError",
    "Prepacked",
    "WireError",
    "decode_envelope",
    "decode_envelope_binary",
    "decode_frame_body",
    "decode_heartbeat",
    "decode_message",
    "decode_value",
    "encode_envelope",
    "encode_envelope_as",
    "encode_envelope_fragments",
    "encode_message",
    "encode_value",
    "heartbeat_envelope",
    "hello_envelope",
    "negotiate_codec",
    "pack_send_envelope",
    "pack_send_reply",
    "pack_store_bytes",
    "pack_value_bytes",
    "read_frame",
    "write_frame",
]
