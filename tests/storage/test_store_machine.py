"""Model-based test of the store: every mutator against a plain-list oracle.

Two clusters take the same operations: one of plain
:class:`MemoryBackend` stores, one of journaled :class:`LogBackend`
stores.  After every step each store must agree with a list-of-entries
oracle on contents, indices, mask, rider count and the ascending flag,
and the three serialisations that read the index list instead of the
entries must spell what the entry walk spells: the binary wire body,
the snapshot text, and the store a recovery boot rebuilds.
"""

import json
import random
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cluster.cluster import Cluster
from repro.core.entry import Entry
from repro.net.codec import _DENSE_ID, pack_store_bytes, pack_value_bytes
from repro.storage.appendlog import (
    AppendLogJournal,
    LogBackend,
    apply_image,
    build_image,
)

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
    """The snapshot ``image`` dict as built by walking every entry —
    ``build_image`` + ``to_snapshot`` as they were before stores were
    serialised from their indices."""
    interner = cluster.interner(KEY)
    canon = [interner.entry_at(i) for i in range(len(interner))]
    return {
        "interners": {KEY: [[e.entry_id, e.payload] for e in canon]},
        "stores": {
            KEY: {
                str(server.server_id): [
                    [e.entry_id, e.payload] for e in server.store(KEY).as_list()
                ]
                for server in cluster.servers
            }
        },
        "states": {},
        "rng": [
            cluster.rng.getstate()[0],
            list(cluster.rng.getstate()[1]),
            cluster.rng.getstate()[2],
        ],
        "epochs": {},
        "params": {},
    }


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="store-machine-")
        self.journal = AppendLogJournal(self.data_dir)
        self.clusters = [
            Cluster(len(SERVERS), seed=5),
            Cluster(len(SERVERS), seed=5, store_factory=self._log_store(self.journal)),
        ]
        for cluster in self.clusters:
            for server in cluster.servers:
                server.store(KEY)
        self.pop_rngs = [random.Random(11) for _ in self.clusters]
        self.oracle_rng = random.Random(11)
        # The oracle: per server the held entries in order, one id ->
        # index map, and the ascending flag as the rules define it.
        self.held = {sid: [] for sid in SERVERS}
        self.index_by_id = {}
        self.ascending = {sid: True for sid in SERVERS}

    @staticmethod
    def _log_store(journal):
        return lambda key, server_id, interner: LogBackend(
            journal, key, server_id, interner
        )

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

    def _oracle_add(self, sid, entry):
        index = self._index(entry.entry_id)
        if self._position(sid, entry.entry_id) is not None:
            return False
        if any(self.index_by_id[e.entry_id] > index for e in self.held[sid]):
            self.ascending[sid] = False  # a re-add below a held index
        self.held[sid].append(entry)
        return True

    # -- rules ---------------------------------------------------------------

    @rule(sid=servers, entry=entries)
    def add(self, sid, entry):
        expected = self._oracle_add(sid, entry)
        for store in self._stores(sid):
            assert store.add(entry) is expected

    @rule(sid=servers, entry_id=st.sampled_from(IDS))
    def discard(self, sid, entry_id):
        position = self._position(sid, entry_id)
        if position is not None:
            self.held[sid].pop(position)
        for store in self._stores(sid):
            assert store.discard(Entry(entry_id)) is (position is not None)

    @rule(sid=servers, old_id=st.sampled_from(IDS), new=entries)
    def replace(self, sid, old_id, new):
        position = self._position(sid, old_id)
        swapped = False
        if position is not None:
            # the store interns ``new`` before it looks for a clash
            self._index(new.entry_id)
            if self._position(sid, new.entry_id) is None:
                self.held[sid][position] = new
                self.ascending[sid] = False
                swapped = True
        for store in self._stores(sid):
            assert store.replace(Entry(old_id), new) is swapped

    @precondition(lambda self: any(self.held.values()))
    @rule(sid=servers)
    def pop_random(self, sid):
        held = self.held[sid]
        if not held:
            return
        # one seed, one call sequence: all three streams stay in step
        expected = held.pop(self.oracle_rng.randrange(len(held)))
        for store, rng in zip(self._stores(sid), self.pop_rngs):
            assert _shape([store.pop_random(rng)]) == _shape([expected])

    @rule(sid=servers)
    def clear(self, sid):
        self.held[sid] = []
        self.ascending[sid] = True
        for store in self._stores(sid):
            store.clear()

    @rule(sid=servers, items=st.lists(entries, max_size=8, unique_by=lambda e: e.entry_id))
    def restore(self, sid, items):
        self.held[sid] = []
        self.ascending[sid] = True
        for entry in items:
            self._oracle_add(sid, entry)
        for store in self._stores(sid):
            store.restore(iter(items))

    @rule(compact=st.booleans())
    def recover(self, compact):
        """A recovery boot — from a fresh snapshot or from the log alone
        — rebuilds every store, sharing the interner's entry objects."""
        live = self.clusters[1]
        if compact:
            self.journal.compact(build_image(live))
        self.journal.flush()
        journal = AppendLogJournal(self.data_dir, read_only=True)
        recovered = Cluster(len(SERVERS), seed=0, store_factory=self._log_store(journal))
        apply_image(journal.load(), recovered, journal=journal)
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
            held = self.held[sid]
            indices = [self.index_by_id[e.entry_id] for e in held]
            for store in self._stores(sid):
                assert _shape(store.as_list()) == _shape(held)
                assert _shape(store) == _shape(held)
                assert store.indices() == indices
                assert store.mask == sum(1 << i for i in indices)
                assert len(store) == len(held)
                assert store.riders == sum(map(_is_rider, held))
                assert store.ascending is self.ascending[sid]
                if store.ascending:
                    assert indices == sorted(indices)

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
            assert build_image(cluster).snapshot_text() == json.dumps(
                _walked_image(cluster), separators=(",", ":")
            )


StoreMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=30)
TestStoreMachine = StoreMachine.TestCase
