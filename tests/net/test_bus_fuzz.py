"""Hostile frames on the writer bus, sans socket.

The writer must answer or drop every frame a reader can send (``fwd``,
``sync``, anything else) without raising.  A reader fed a bad
``delta`` (or ``sync_reply``) must resync, leaving its stores as they
were, or fail loudly; it never takes a bad delta silently, and its
watermark never passes one.
"""

import asyncio
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.messages import AddRequest, LookupRequest, StoreMessage
from repro.core.entry import Entry
from repro.net.codec import decode_frame_body, encode_envelope, encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import WriteForwarder, WriterBus

CONFIG = ServiceConfig(server_count=4, entry_count=8, seed=5)
SCHEMES = sorted(DEFAULT_SCHEMES)


class _Pipe:
    """A bus connection's write half: frames are decoded and kept."""

    def __init__(self):
        self.frames = []

    def write(self, data):
        while data:  # one write may carry several frames
            end = 4 + int.from_bytes(data[:4], "big")
            self.frames.append(decode_frame_body(data[4:end]))
            data = data[end:]

    async def drain(self):
        await asyncio.sleep(0)

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _masks(service):
    return [[s.store(key).mask for s in service.cluster.servers] for key in SCHEMES]


def _same(a, b):
    """``a == b``, but a NaN equals a NaN: an echoed NaN id is the id."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def _json(frame):
    """The frame exactly as it arrives over the JSON pipe."""
    return decode_frame_body(encode_envelope(frame)[4:])


junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=2),
)
messages = st.sampled_from(
    [
        AddRequest(Entry("zz-a")),
        AddRequest(Entry("zz-b", {"h": 1})),
        LookupRequest(0),
        LookupRequest(3),
        StoreMessage(Entry("zz-c")),
    ]
).map(encode_message)
sends = st.fixed_dictionaries(
    {
        "op": st.just("send"),
        "server": st.one_of(st.integers(-1, 5), st.booleans(), st.floats(0, 3)),
        "key": st.one_of(st.sampled_from(SCHEMES), st.just("nope"), st.integers()),
        "message": st.one_of(messages, junk),
    }
)
envelopes = st.one_of(
    sends,
    junk,
    st.fixed_dictionaries(
        {"op": st.just("batch"), "requests": st.lists(sends, max_size=2)}
    ),
    st.fixed_dictionaries({"op": st.sampled_from(["ping", "info", "verify"])}),
)
bus_frames = st.one_of(
    st.fixed_dictionaries(
        {
            "op": st.just("fwd"),
            "id": junk,
            "envelopes": st.one_of(st.lists(envelopes, max_size=4), junk),
        }
    ),
    st.fixed_dictionaries(
        {"op": st.just("sync"), "id": junk},
        optional={"since": st.one_of(junk, st.sampled_from([-1, 0, 10**30]))},
    ),
    st.fixed_dictionaries(
        {"op": st.one_of(st.sampled_from(["delta", "sync_reply", "fwd_reply"]), junk)}
    ),
)


@settings(max_examples=100)
@given(st.lists(bus_frames, min_size=1, max_size=6))
@example([{"op": "fwd", "id": math.nan, "envelopes": None}])
@example([{"op": "fwd", "id": 1, "envelopes": []}])
def test_writer_answers_or_drops_every_frame(frames):
    service = LookupService(CONFIG)
    bus = WriterBus(service, "unused.sock")
    origin, other = _Pipe(), _Pipe()
    bus._conns.update((origin, other))
    # Each envelope the bus applies, and whether the stores moved.
    applied = []
    apply = bus._apply

    def tracked(envelope, conn):
        masks = _masks(service)
        response = apply(envelope, conn)
        applied.append((envelope, _masks(service) != masks))
        return response

    bus._apply = tracked
    for frame in map(_json, frames):
        epoch, masks = bus.epoch, _masks(service)
        written = len(origin.frames)
        bus._handle(frame, origin)
        replies = origin.frames[written:]
        if frame["op"] == "fwd":
            envelopes = frame["envelopes"]
            if type(envelopes) is not list or not envelopes:
                (reply,) = replies
                assert reply["reply"]["error"] == "bad-request"
                envelopes = [None]
            # One reply per item, in order.
            assert len(replies) == len(envelopes)
            for envelope, reply in zip(envelopes, replies):
                assert reply["op"] == "fwd_reply" and _same(reply["id"], frame.get("id"))
                # The epoch moves exactly when the stores did.
                moved = bool(applied) and applied[0][0] is envelope and applied.pop(0)[1]
                assert ("delta" in reply) is moved
                epoch += moved
                if moved:
                    assert reply["delta"]["epoch"] == epoch
                    assert isinstance(envelope, dict) and envelope.get("op") == "send"
                    assert reply["reply"]["ok"]
            assert not applied and bus.epoch == epoch
        elif frame["op"] == "sync":
            (reply,) = replies
            assert reply["op"] == "sync_reply" and reply["epoch"] == bus.epoch
            assert ("deltas" in reply) != ("stores" in reply)
            assert _masks(service) == masks
        else:
            assert replies == [] and _masks(service) == masks
    # Every delta the others heard is a gap-free run of epochs.
    heard = [frame["delta"]["epoch"] for frame in other.frames]
    assert heard == list(range(1, len(heard) + 1))


def _pumped_forwarder(service):
    fwd = WriteForwarder(service, "unused.sock")
    fwd._reader = asyncio.StreamReader()
    fwd._writer = _Pipe()
    fwd.fatal = []
    fwd.on_fatal = lambda: fwd.fatal.append(True)
    fwd._pump_task = asyncio.create_task(fwd._pump())
    return fwd


async def _settle():
    for _ in range(5):
        await asyncio.sleep(0)


def _reader_outcome(frame):
    """Feed one frame to a fresh reader's pump: the outcome, and the
    reader's stores before and after."""

    async def scenario():
        service = LookupService(CONFIG)
        fwd = _pumped_forwarder(service)
        before = _masks(service)
        try:
            fwd._reader.feed_data(encode_envelope(frame))
            await _settle()
            after = _masks(service)
            if fwd.fatal:
                outcome = "fatal"
            elif [f["op"] for f in fwd._writer.frames] == ["sync"]:
                outcome = "resync"
            else:
                assert fwd._writer.frames == []
                outcome = "applied" if fwd.applier.applied else "ignored"
            return outcome, before, after, service, fwd.applier.applied
        finally:
            await fwd.stop()

    return asyncio.run(scenario())


ids = st.sampled_from(["0", "1", "3", "-1", "4", "01", " 1", "1.0", "x"])
#: Dense indices: 0-7 are interned on every scheme's reader, 8 and 9 only
#: by a delta's own ``new``.
indices = st.integers(0, 9)
members = st.one_of(indices, st.tuples(indices, st.just("p")).map(list), junk)
changes = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "add": st.lists(members, max_size=3),
            "drop": st.lists(st.one_of(indices, junk), max_size=3),
        },
    ),
    junk,
)
deltas = st.one_of(
    st.fixed_dictionaries(
        {
            "epoch": st.one_of(st.just(1), junk),
            "key": st.one_of(st.sampled_from(SCHEMES), junk),
            "servers": st.one_of(st.dictionaries(ids, changes, max_size=3), junk),
        },
        optional={
            "base": st.one_of(st.integers(0, 9), junk),
            "new": st.lists(
                st.tuples(st.sampled_from(["zz1", "zz2", "v1"]), st.none()).map(list),
                max_size=2,
            ),
        },
    ),
    junk,
)


@settings(max_examples=100)
@given(deltas)
def test_reader_resyncs_or_fails_loudly_on_a_bad_delta(delta):
    outcome, before, after, service, applied = _reader_outcome(
        {"op": "delta", "delta": delta}
    )
    epoch = delta.get("epoch") if isinstance(delta, dict) else None
    if type(epoch) is not int:
        # True is not epoch 1, nor 1.0: no epoch at all is a gap.
        assert outcome == "resync"
    if outcome != "applied":
        assert applied == 0
        if outcome != "fatal":  # a fatal reader exits with what it holds
            assert after == before
        return
    # Applied means applied whole, to a scheme this reader hosts: drops
    # land after adds, so every dropped index is gone and every other
    # add is held.
    assert applied == 1
    assert delta["key"] in service.strategies
    for sid, change in delta["servers"].items():
        store = service.cluster.servers[int(sid)].store(delta["key"])
        held = set(store.indices())
        dropped = set(change.get("drop", ()))
        added = {item if type(item) is int else item[0] for item in change.get("add", ())}
        assert not dropped & held
        assert added - dropped <= held


def test_reader_named_cases():
    fatal = [
        # As list indices, -1 and -4 would name real servers.
        {"epoch": 1, "key": "hash", "servers": {"-1": {"add": [5]}}},
        {"epoch": 1, "key": "hash", "servers": {"-4": {"drop": [1]}}},
        {"epoch": 1, "key": "hash", "servers": {"9": {}}},
        # An index past the interner, and a drop that is not an index.
        {"epoch": 1, "key": "hash", "servers": {"1": {"add": [99]}}},
        {"epoch": 1, "key": "hash", "servers": {"1": {"drop": [[5]]}}},
        # A scheme this reader does not host.
        {"epoch": 1, "key": "nope", "servers": {"1": {}}},
        # Entries the reader's interner holds, or would put, elsewhere.
        {"epoch": 1, "key": "hash", "base": 3, "new": [["zz1", None]], "servers": {}},
        {"epoch": 1, "key": "hash", "base": 0, "new": [["v2", None]], "servers": {}},
    ]
    for delta in fatal:
        outcome, before, after, _, applied = _reader_outcome({"op": "delta", "delta": delta})
        assert (outcome, after, applied) == ("fatal", before, 0), delta
    fresh = {"key": "hash", "base": 8, "new": [["zz1", None]], "servers": {"1": {"add": [8]}}}
    for epoch in (True, 1.0, "1", None):
        delta = dict(fresh, epoch=epoch)
        outcome, before, after, _, _ = _reader_outcome({"op": "delta", "delta": delta})
        assert (outcome, after) == ("resync", before), epoch
    outcome, before, after, service, applied = _reader_outcome(
        {"op": "delta", "delta": dict(fresh, epoch=1)}
    )
    assert (outcome, applied) == ("applied", 1)
    assert "zz1" in {e.entry_id for e in service.cluster.servers[1].store("hash")}


def test_reader_named_sync_cases():
    # A snapshot is checked as a delta is: every scheme and server it
    # names must be the reader's, and its interner order the reader's
    # own from index 0; anything else fails the reader, not skips.
    fatal = [
        {"nope": {"servers": {}}},
        {"hash": {"servers": {"9": {"add": [0]}}}},
        {"hash": {"servers": {"-1": {"add": [0]}}}},
        {"hash": {"base": 0, "new": [["v2", None]], "servers": {}}},
    ]
    for stores in fatal:
        frame = {"op": "sync_reply", "id": 1, "epoch": 3, "stores": stores}
        outcome, before, after, _, applied = _reader_outcome(frame)
        assert (outcome, after, applied) == ("fatal", before, 0), stores


@settings(max_examples=60)
@given(
    st.fixed_dictionaries(
        {"op": st.just("sync_reply"), "id": junk},
        optional={
            "epoch": junk,
            "stores": st.one_of(junk, st.dictionaries(st.sampled_from(SCHEMES), junk)),
            "deltas": junk,
            "hot": junk,
        },
    )
)
def test_reader_adopts_or_fails_loudly_on_a_bad_sync_reply(frame):
    outcome, before, after, _, applied = _reader_outcome(frame)
    assert outcome in ("fatal", "applied", "ignored")
    if outcome == "fatal":
        assert applied == 0
