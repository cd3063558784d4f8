"""Model-based test of the store: every mutator against a plain-list oracle.

Two clusters take the same operations; the second's effect is journaled
after every rule as the update record diffed from the masks around it,
as a service's sync point does, and a third cluster — a reader — takes
only those records.  After every step each store must hold the
oracle's entries in ascending interner index, whatever order they were
added in, and agree with it on indices, mask and rider count; the
reader must hold the same ids, payloads and indices.  The three
serialisations that read the index list instead of the entries must
spell what the entry walk spells: the binary wire body, the snapshot
text, and the store a recovery boot rebuilds.
"""

import base64
import contextlib
import json
import random
import shutil
import struct
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.cluster import Cluster
from repro.cluster.snapshots import apply_image, capture_image
from repro.core.entry import Entry
from repro.core.storage import apply_record, masks_before, update_record
from repro.net.codec import _DENSE_ID, pack_store_bytes, pack_value_bytes
from repro.storage.appendlog import AppendLogJournal

KEY = "k"
SERVERS = (0, 1)


class Tagged(Entry):
    """A subclassed entry: equal to its plain twin, encoded generically."""


#: Dense ids, ids the dense encoding must refuse, and a non-ASCII one.
IDS = [f"v{i}" for i in range(1, 9)] + ["v01", "x7", "w-é"]
PAYLOADS = [None, None, None, 7, "p", {"a": [1, None]}]


def _entry(cls, entry_id, payload):
    return cls(entry_id, payload)


entries = st.builds(
    _entry,
    st.sampled_from([Entry, Entry, Entry, Tagged]),
    st.sampled_from(IDS),
    st.sampled_from(PAYLOADS),
)
servers = st.sampled_from(SERVERS)


def _is_rider(entry):
    return type(entry) is not Entry or entry.payload is not None


def _shape(items):
    return [(type(e), e.entry_id, e.payload) for e in items]


def _walked_image(cluster):
    """The snapshot ``image`` dict as built by walking every entry: each
    store that holds any a list of its entries' indices, ``[index,
    payload]`` for one that carries a payload, and the RNG's 625 words
    packed as base64 of little-endian uint32 (snapshot schema 3)."""
    interner = cluster.interner(KEY)
    canon = [interner.entry_at(i) for i in range(len(interner))]
    version, words, gauss = cluster.rng.getstate()
    return {
        "interners": {KEY: [[e.entry_id, e.payload] for e in canon]},
        "stores": {
            KEY: {
                str(server.server_id): [
                    interner.index_of(e.entry_id)
                    if e.payload is None
                    else [interner.index_of(e.entry_id), e.payload]
                    for e in server.store(KEY).as_list()
                ]
                for server in cluster.servers
                if len(server.store(KEY))
            }
        },
        "states": {},
        "rng": [
            version,
            base64.b64encode(struct.pack("<625I", *words)).decode("ascii"),
            gauss,
        ],
        "epochs": {},
        "params": {},
    }


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="store-machine-")
        self.journal = AppendLogJournal(self.data_dir)
        self.clusters = [Cluster(len(SERVERS), seed=5), Cluster(len(SERVERS), seed=5)]
        self.reader = Cluster(len(SERVERS), seed=7)
        for cluster in (*self.clusters, self.reader):
            for server in cluster.servers:
                server.store(KEY)
        self.pop_rngs = [random.Random(11) for _ in self.clusters]
        self.oracle_rng = random.Random(11)
        # The oracle: per server the held entries in arrival order, and
        # one id -> index map.
        self.held = {sid: [] for sid in SERVERS}
        self.index_by_id = {}

    @contextlib.contextmanager
    def _journaled(self):
        """The second cluster's effect, as one update record: journaled,
        and applied to the reader."""
        stores = [server.store(KEY) for server in self.clusters[1].servers]
        before, base = masks_before(stores), len(stores[0].interner)
        yield
        record = update_record(KEY, stores, before, base)
        if record is not None:
            self.journal.append(record)
            apply_record([server.store(KEY) for server in self.reader.servers], record)

    def teardown(self):
        self.journal.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def _stores(self, sid):
        return [cluster.servers[sid].store(KEY) for cluster in self.clusters]

    def _index(self, entry_id):
        return self.index_by_id.setdefault(entry_id, len(self.index_by_id))

    def _position(self, sid, entry_id):
        ids = [e.entry_id for e in self.held[sid]]
        return ids.index(entry_id) if entry_id in ids else None

    def _ordered(self, sid):
        """The held entries as a store must list them."""
        return sorted(self.held[sid], key=lambda e: self.index_by_id[e.entry_id])

    def _oracle_add(self, sid, entry):
        self._index(entry.entry_id)
        if self._position(sid, entry.entry_id) is not None:
            return False
        self.held[sid].append(entry)
        return True

    # -- rules ---------------------------------------------------------------

    @rule(sid=servers, entry=entries)
    def add(self, sid, entry):
        expected = self._oracle_add(sid, entry)
        with self._journaled():
            for store in self._stores(sid):
                assert store.add(entry) is expected

    @rule(sid=servers, entry_id=st.sampled_from(IDS))
    def discard(self, sid, entry_id):
        position = self._position(sid, entry_id)
        if position is not None:
            self.held[sid].pop(position)
        with self._journaled():
            for store in self._stores(sid):
                assert store.discard(Entry(entry_id)) is (position is not None)

    @rule(sid=servers, entry=entries)
    def swap(self, sid, entry):
        """Drop an id and add it back as ``entry`` in one write, as
        RandomServer-x's place does: the mask need not move at all."""
        position = self._position(sid, entry.entry_id)
        if position is not None:
            self.held[sid].pop(position)
        self._oracle_add(sid, entry)
        with self._journaled():
            for store in self._stores(sid):
                store.discard(Entry(entry.entry_id))
                assert store.add(entry)

    @precondition(lambda self: any(self.held.values()))
    @rule(sid=servers)
    def pop_random(self, sid):
        ordered = self._ordered(sid)
        if not ordered:
            return
        # one seed, one call sequence: all three streams stay in step
        expected = ordered[self.oracle_rng.randrange(len(ordered))]
        self.held[sid].pop(self._position(sid, expected.entry_id))
        with self._journaled():
            for store, rng in zip(self._stores(sid), self.pop_rngs):
                assert _shape([store.pop_random(rng)]) == _shape([expected])

    @rule(sid=servers)
    def clear(self, sid):
        self.held[sid] = []
        with self._journaled():
            for store in self._stores(sid):
                store.clear()

    @rule(compact=st.booleans())
    def recover(self, compact):
        """A recovery boot — from a fresh snapshot or from the log alone
        — rebuilds every store, sharing the interner's entry objects."""
        live = self.clusters[1]
        if compact:
            self.journal.compact(capture_image(live))
        self.journal.flush()
        journal = AppendLogJournal(self.data_dir, read_only=True)
        recovered = Cluster(len(SERVERS), seed=0)
        apply_image(journal.load(), recovered)
        interner = recovered.interner(KEY)
        for sid in SERVERS:
            store = recovered.servers[sid].store(KEY)
            mine = live.servers[sid].store(KEY)
            assert [(e.entry_id, e.payload) for e in store] == [
                (e.entry_id, e.payload) for e in mine
            ]
            assert store.indices() == mine.indices()
            assert store.mask == mine.mask
            for entry, index in zip(store, store.indices()):
                canonical = interner.entry_at(index)
                if entry.payload is None and canonical.payload is None:
                    assert entry is canonical
        assert journal.log_records == self.journal.log_records

    # -- invariants ----------------------------------------------------------

    @invariant()
    def stores_agree_with_the_oracle(self):
        for sid in SERVERS:
            ordered = self._ordered(sid)
            indices = [self.index_by_id[e.entry_id] for e in ordered]
            for store in self._stores(sid):
                listed = store.indices()
                assert all(a < b for a, b in zip(listed, listed[1:]))
                assert listed == indices
                assert _shape(store.as_list()) == _shape(ordered)
                assert _shape(store) == _shape(ordered)
                assert store.mask == sum(1 << i for i in indices)
                assert len(store) == len(ordered)
                assert store.riders == sum(map(_is_rider, ordered))

    @invariant()
    def the_reader_holds_what_the_records_say(self):
        for sid in SERVERS:
            mine = self.reader.servers[sid].store(KEY)
            theirs = self.clusters[1].servers[sid].store(KEY)
            assert [(e.entry_id, e.payload) for e in mine] == [
                (e.entry_id, e.payload) for e in theirs
            ]
            assert (mine.indices(), mine.mask) == (theirs.indices(), theirs.mask)

    @invariant()
    def wire_body_is_the_generic_encoding_or_declined(self):
        for sid in SERVERS:
            held = self.held[sid]
            dense = bool(held) and not any(
                _is_rider(e) or _DENSE_ID.match(e.entry_id) is None for e in held
            )
            for store in self._stores(sid):
                built = pack_store_bytes(store)
                if dense:
                    assert built == pack_value_bytes(store.as_list())
                else:
                    assert built is None

    @invariant()
    def snapshot_text_is_the_entry_walk(self):
        for cluster in self.clusters:
            assert json.dumps(
                capture_image(cluster).to_json(), separators=(",", ":")
            ) == json.dumps(_walked_image(cluster), separators=(",", ":")
            )


StoreMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30)
TestStoreMachine = StoreMachine.TestCase
