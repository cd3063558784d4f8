"""The storage backend interface: contract, alias, factory threading."""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.server import Server
from repro.core.entry import Entry, make_entries
from repro.core.interning import EntryInterner
from repro.core.storage import EntryStore, MemoryBackend, StorageBackend


class TestInterface:
    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            StorageBackend()

    def test_entrystore_is_the_memory_backend(self):
        # A real alias, not a subclass: pre-split instance checks and
        # constructed objects must be indistinguishable.
        assert EntryStore is MemoryBackend

    def test_memory_backend_satisfies_the_contract(self):
        assert issubclass(MemoryBackend, StorageBackend)
        store = MemoryBackend(make_entries(3))
        assert isinstance(store, StorageBackend)

    def test_three_views_stay_in_lockstep(self):
        interner = EntryInterner()
        store = MemoryBackend(interner=interner)
        entries = make_entries(5)
        for entry in entries:
            store.add(entry)
        assert store.as_list() == entries
        assert store.indices() == [interner.index_of(e.entry_id) for e in entries]
        assert store.mask == sum(1 << i for i in store.indices())
        store.discard(entries[2])
        assert store.as_list() == entries[:2] + entries[3:]
        assert store.mask == sum(1 << i for i in store.indices())

    def test_default_restore_is_clear_then_add(self):
        store = MemoryBackend(make_entries(4))
        replacement = [Entry("x1"), Entry("x2")]
        store.restore(replacement)
        assert store.as_list() == replacement
        assert len(store) == 2
        assert store.mask.bit_count() == 2

    def test_restore_preserves_insertion_order_and_indices(self):
        interner = EntryInterner()
        a = MemoryBackend(make_entries(6), interner=interner)
        b = MemoryBackend(interner=interner)
        b.restore(a.as_list())
        assert b.as_list() == a.as_list()
        assert b.indices() == a.indices()
        assert b.mask == a.mask
        # and a restored store samples identically under an equal RNG
        assert b.sample(3, random.Random(7)) == a.sample(3, random.Random(7))


class TestIndexList:
    """What the store keeps about its index list: order and riders."""

    def test_removal_bisects_while_ascending_and_scans_after(self):
        store = MemoryBackend(make_entries(8))
        assert store.ascending
        store.discard(Entry("v3"))
        assert store.ascending  # removal keeps order
        store.add(Entry("v3"))  # re-added below the tail
        assert not store.ascending
        assert store.indices() == [0, 1, 3, 4, 5, 6, 7, 2]
        # the scan arm: positions a bisect over this list would miss
        for victim in ("v3", "v8", "v1"):
            assert store.discard(Entry(victim))
        assert store.indices() == [1, 3, 4, 5, 6]
        assert [e.entry_id for e in store] == ["v2", "v4", "v5", "v6", "v7"]

    def test_replace_ends_the_order_and_clear_restores_it(self):
        store = MemoryBackend(make_entries(4))
        assert store.replace(Entry("v2"), Entry("w2"))
        assert not store.ascending and store.indices() == [0, 4, 2, 3]
        assert store.discard(Entry("w2")) and store.indices() == [0, 2, 3]
        store.clear()
        assert store.ascending
        store.restore([Entry("v4"), Entry("v1")])
        assert not store.ascending  # restore is clear-then-add

    def test_riders_are_counted_per_store_not_per_index(self):
        interner = EntryInterner()
        plain = MemoryBackend(make_entries(3), interner=interner)
        mixed = MemoryBackend(interner=interner)
        mixed.add(Entry("v1", payload="p"))
        mixed.add(type("Tagged", (Entry,), {})("v2"))
        mixed.add(Entry("v3"))
        assert (plain.riders, mixed.riders) == (0, 2)
        assert plain.fragments(str.upper) == ["V1", "V2", "V3"]
        assert mixed.fragments(str.upper) is None
        mixed.replace(Entry("v1"), Entry("v4"))
        mixed.discard(Entry("v2"))
        assert mixed.riders == 0
        assert mixed.fragments(str.upper) == ["V4", "V3"]
        mixed.add(Entry("v9", payload=0))
        assert mixed.pop_random(random.Random(3)) is not None
        mixed.clear()
        assert mixed.riders == 0

    def test_fragment_tables_are_per_encoder_and_grow_with_the_interner(self):
        interner = EntryInterner()
        calls = []

        def encode(entry_id):
            calls.append(entry_id)
            return entry_id.encode()

        store = MemoryBackend(make_entries(3), interner=interner)
        assert store.fragments(encode) == [b"v1", b"v2", b"v3"]
        assert store.fragments(encode) == [b"v1", b"v2", b"v3"]
        assert calls == ["v1", "v2", "v3"]  # each id is encoded once
        store.add(Entry("v4"))
        store.discard(Entry("v2"))
        assert store.fragments(encode) == [b"v1", b"v3", b"v4"]
        assert calls == ["v1", "v2", "v3", "v4"]
        assert store.fragments(len) == [2, 2, 2]


class _RecordingBackend(MemoryBackend):
    """A backend that records construction, to observe factory calls."""

    __slots__ = ("created_for",)

    def __init__(self, key, server_id, interner):
        self.created_for = (key, server_id)
        super().__init__(interner=interner)


class TestStoreFactory:
    def test_server_uses_the_factory_per_key(self):
        interners = {}
        server = Server(
            3,
            interners=interners,
            store_factory=lambda k, s, i: _RecordingBackend(k, s, i),
        )
        store = server.store("hash")
        assert isinstance(store, _RecordingBackend)
        assert store.created_for == ("hash", 3)
        assert store is server.store("hash")  # one store per key, cached

    def test_factory_stores_share_the_cluster_interner(self):
        cluster = Cluster(
            4, seed=1, store_factory=lambda k, s, i: _RecordingBackend(k, s, i)
        )
        for server in cluster.servers:
            assert server.store("k").interner is cluster.interner("k")

    def test_default_factory_is_the_memory_backend(self):
        cluster = Cluster(2, seed=1)
        store = cluster.server(0).store("k")
        assert type(store) is MemoryBackend

    def test_cluster_interner_is_lazy_and_stable(self):
        cluster = Cluster(2, seed=1)
        interner = cluster.interner("fresh-key")
        assert cluster.interner("fresh-key") is interner
        assert cluster.server(1).store("fresh-key").interner is interner
