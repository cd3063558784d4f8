"""Unit tests for Server and its MemoryBackend store."""

import random

import pytest

from repro.cluster.server import Server
from repro.core.storage import MemoryBackend
from repro.core.entry import Entry, make_entries


class TestEntryStore:
    def test_add_returns_true_on_new(self):
        store = MemoryBackend()
        assert store.add(Entry("a"))

    def test_add_duplicate_returns_false(self):
        store = MemoryBackend([Entry("a")])
        assert not store.add(Entry("a"))
        assert len(store) == 1

    def test_discard_present(self):
        store = MemoryBackend(make_entries(3))
        assert store.discard(Entry("v2"))
        assert Entry("v2") not in store
        assert len(store) == 2

    def test_discard_absent_returns_false(self):
        store = MemoryBackend()
        assert not store.discard(Entry("x"))

    def test_membership(self):
        store = MemoryBackend([Entry("a")])
        assert Entry("a") in store
        assert Entry("b") not in store

    def test_iteration_preserves_insertion_order(self):
        entries = make_entries(5)
        store = MemoryBackend(entries)
        assert list(store) == entries

    def test_sample_size(self):
        store = MemoryBackend(make_entries(10))
        sampled = store.sample(4, random.Random(1))
        assert len(sampled) == 4
        assert len(set(sampled)) == 4

    def test_sample_more_than_stored_returns_all(self):
        store = MemoryBackend(make_entries(3))
        assert sorted(store.sample(10, random.Random(1))) == make_entries(3)

    def test_sample_zero_means_everything(self):
        store = MemoryBackend(make_entries(3))
        assert sorted(store.sample(0, random.Random(1))) == make_entries(3)

    def test_sample_uniformity(self):
        store = MemoryBackend(make_entries(4))
        rng = random.Random(9)
        counts = {e.entry_id: 0 for e in make_entries(4)}
        trials = 8000
        for _ in range(trials):
            for entry in store.sample(1, rng):
                counts[entry.entry_id] += 1
        for count in counts.values():
            assert abs(count / trials - 0.25) < 0.03

    def test_pop_random_removes(self):
        store = MemoryBackend(make_entries(5))
        popped = store.pop_random(random.Random(1))
        assert popped not in store
        assert len(store) == 4

    def test_pop_random_empty_raises(self):
        with pytest.raises(KeyError):
            MemoryBackend().pop_random(random.Random(1))

    def test_clear(self):
        store = MemoryBackend(make_entries(3))
        store.clear()
        assert len(store) == 0
        assert store.add(Entry("v1"))  # ids cleared too


class TestServer:
    def test_stores_are_per_key(self):
        server = Server(0)
        server.store("a").add(Entry("x"))
        assert server.stored_entry_count("a") == 1
        assert server.stored_entry_count("b") == 0

    def test_state_is_per_key(self):
        server = Server(0)
        server.state("a")["head"] = 5
        assert "head" not in server.state("b")

    def test_fail_and_recover_preserve_state(self):
        server = Server(0)
        server.store("k").add(Entry("x"))
        server.fail()
        assert not server.alive
        server.recover()
        assert server.alive
        assert Entry("x") in server.store("k")

    def test_wipe_erases_everything(self):
        server = Server(0)
        server.store("k").add(Entry("x"))
        server.state("k")["h"] = 3
        server.wipe()
        assert server.stored_entry_count("k") == 0
        assert server.state("k") == {}

    def test_receive_without_logic_raises(self):
        from repro.cluster.messages import StoreMessage

        server = Server(0)
        with pytest.raises(RuntimeError, match="no logic"):
            server.receive("k", StoreMessage(Entry("x")), network=None)

    def test_keys_listing(self):
        server = Server(0)
        server.store("a")
        server.store("b")
        assert server.keys() == ["a", "b"]
