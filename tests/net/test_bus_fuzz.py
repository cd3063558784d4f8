"""Hostile frames on the writer bus, sans socket.

The writer must answer or drop every frame a reader can send (``fwd``,
``sync``, anything else) without raising.  A reader fed a bad
``delta`` (or ``sync_reply``) must resync, leaving its stores as they
were, or fail loudly; it never takes a bad delta silently, and its
watermark never passes one.
"""

import asyncio

from hypothesis import given, settings
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
        self.frames.append(decode_frame_body(data[4:]))

    async def drain(self):
        await asyncio.sleep(0)

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _masks(service):
    return [[s.store(key).mask for s in service.cluster.servers] for key in SCHEMES]


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
    st.fixed_dictionaries({"op": st.just("fwd"), "id": junk, "envelope": envelopes}),
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
def test_writer_answers_or_drops_every_frame(frames):
    service = LookupService(CONFIG)
    bus = WriterBus(service, "unused.sock")
    origin, other = _Pipe(), _Pipe()
    bus._conns.update((origin, other))
    for frame in map(_json, frames):
        epoch, masks = bus.epoch, _masks(service)
        written = len(origin.frames)
        bus._handle(frame, origin)
        replies = origin.frames[written:]
        if frame["op"] == "fwd":
            (reply,) = replies
            assert reply["op"] == "fwd_reply" and reply["id"] == frame.get("id")
            # The epoch moves exactly when the stores did.
            moved = _masks(service) != masks
            assert ("delta" in reply) is moved
            assert bus.epoch == epoch + moved
            envelope = frame["envelope"]
            if moved:
                assert isinstance(envelope, dict) and envelope.get("op") == "send"
                assert reply["reply"]["ok"]
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
wire_entries = st.one_of(
    st.integers(0, 9).map(lambda i: {"!": "entry", "id": f"zz{i}", "payload": None}),
    st.just({"!": "entry", "id": 7}),
    junk,
)
changes = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "add": st.lists(wire_entries, max_size=3),
            "drop": st.lists(
                st.one_of(st.sampled_from(["v1", "v2", "zz1"]), junk), max_size=3
            ),
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
        }
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
    # Applied means applied whole: drops land after adds, so every
    # dropped id is gone and every other add is held.
    assert applied == 1
    if delta["key"] not in service.strategies:
        assert after == before
        return
    for sid, change in delta["servers"].items():
        store = service.cluster.servers[int(sid)].store(delta["key"])
        held = {entry.entry_id for entry in store.as_list()}
        dropped = set(change.get("drop", ()))
        assert not dropped & held
        assert {wire["id"] for wire in change.get("add", ())} - dropped <= held


def test_reader_named_cases():
    good = {"!": "entry", "id": "zz1", "payload": None}
    fatal = [
        # As list indices, -1 and -4 would name real servers.
        {"epoch": 1, "key": "hash", "servers": {"-1": {"add": [good]}}},
        {"epoch": 1, "key": "hash", "servers": {"-4": {"drop": ["v1"]}}},
        {"epoch": 1, "key": "hash", "servers": {"9": {}}},
        {"epoch": 1, "key": "hash", "servers": {"1": {"add": [5]}}},
        {"epoch": 1, "key": "hash", "servers": {"1": {"drop": [[5]]}}},
    ]
    for delta in fatal:
        outcome, before, after, _, applied = _reader_outcome({"op": "delta", "delta": delta})
        assert (outcome, after, applied) == ("fatal", before, 0), delta
    for epoch in (True, 1.0, "1", None):
        delta = {"epoch": epoch, "key": "hash", "servers": {"1": {"add": [good]}}}
        outcome, before, after, _, _ = _reader_outcome({"op": "delta", "delta": delta})
        assert (outcome, after) == ("resync", before), epoch
    outcome, before, after, _, applied = _reader_outcome(
        {"op": "delta", "delta": {"epoch": 1, "key": "nope", "servers": {"1": {}}}}
    )
    assert (outcome, after, applied) == ("applied", before, 1)


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
