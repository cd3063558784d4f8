"""The entry store: its three views, its index list, update records."""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.core.entry import Entry, make_entries
from repro.core.interning import EntryInterner
from repro.core.storage import (
    MemoryBackend,
    apply_record,
    masks_before,
    update_record,
)


class TestInterface:
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

    def test_a_store_rebuilt_from_its_membership_is_identical(self):
        interner = EntryInterner()
        a = MemoryBackend(make_entries(6), interner=interner)
        a.discard(Entry("v2"))
        a.add(Entry("w1", payload="p"))
        assert a.membership() == [0, 2, 3, 4, 5, [6, "p"]]
        assert a.membership(1 << 6 | 1 << 3) == [3, [6, "p"]]
        b = MemoryBackend(interner=interner)
        apply_record([b], {"servers": {"0": {"add": a.membership()}}})
        assert [(e.entry_id, e.payload) for e in b] == [
            (e.entry_id, e.payload) for e in a
        ]
        assert (b.indices(), b.mask, b.riders) == (a.indices(), a.mask, a.riders)
        # and a rebuilt store samples identically under an equal RNG
        assert b.sample(3, random.Random(7)) == a.sample(3, random.Random(7))
        assert b.discard_at(6) and not b.discard_at(6) and not b.discard_at(1)


class TestIndexList:
    """What the store keeps about its index list: ascending, and riders."""

    def test_a_re_add_below_a_held_index_lands_in_place(self):
        store = MemoryBackend(make_entries(8))
        assert store.discard(Entry("v3"))
        assert store.add(Entry("v3"))  # index 2, below the tail
        assert store.indices() == list(range(8))
        assert store.as_list() == make_entries(8)
        for victim in ("v3", "v8", "v1"):
            assert store.discard(Entry(victim))
        assert store.indices() == [1, 3, 4, 5, 6]
        assert [e.entry_id for e in store] == ["v2", "v4", "v5", "v6", "v7"]
        # the order is the set's, not the arrival order's
        store.clear()
        for entry in (Entry("v4"), Entry("v1")):
            store.add(entry)
        assert store.indices() == [0, 3]

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
        mixed.discard(Entry("v1"))
        mixed.add(Entry("v4"))
        mixed.discard(Entry("v2"))
        assert mixed.riders == 0
        assert mixed.fragments(str.upper) == ["V3", "V4"]
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


class TestUpdateRecord:
    """A write's effect as one record, and that record applied elsewhere."""

    def _twins(self):
        return [
            [MemoryBackend(make_entries(4), interner=interner) for _ in range(3)]
            for interner in (EntryInterner(), EntryInterner())
        ]

    def test_a_record_carries_what_moved_by_index_and_applies_exactly(self):
        writer, reader = self._twins()
        before, base = [s.mask for s in writer], len(writer[0].interner)
        writer[0].discard(Entry("v2"))
        writer[2].add(Entry("w1"))
        writer[2].add(Entry("v9", payload={"a": [1]}))
        popped = writer[2].pop_random(random.Random(3))
        record = update_record("k", writer, before, base)
        assert record["base"] == 4 and record["new"] == [["w1", None], ["v9", {"a": [1]}]]
        assert set(record["servers"]) == {"0", "2"}
        assert record["servers"]["0"] == {"drop": [1]}
        # the draw is in the record as its outcome: applying it takes no RNG
        assert popped.entry_id in {e.entry_id for e in reader[2]}
        apply_record(reader, record)
        assert popped.entry_id not in {e.entry_id for e in reader[2]}
        for mine, theirs in zip(reader, writer):
            assert [(e.entry_id, e.payload) for e in mine] == [
                (e.entry_id, e.payload) for e in theirs
            ]
            assert mine.indices() == theirs.indices()

    def test_no_op_mutations_make_no_record(self):
        (stores, _) = self._twins()
        before, base = [s.mask for s in stores], len(stores[0].interner)
        stores[0].add(Entry("v1"))  # present
        stores[1].discard(Entry("absent"))
        assert update_record("k", stores, before, base) is None

    @pytest.mark.parametrize(
        "held, swapped", [("A", "B"), ("A", None), (None, "B")]
    )
    def test_a_rider_swapped_in_one_write_is_in_its_record(self, held, swapped):
        # Dropping an entry and adding its id back with another payload
        # leaves the mask as it was; the record still names the index.
        writer, reader = self._twins()
        for stores in (writer, reader):
            stores[1].add(Entry("zz", held))
        before, base = masks_before(writer), len(writer[0].interner)
        writer[1].clear()
        for entry in [Entry("zz", swapped)] + make_entries(4):
            writer[1].add(entry)
        record = update_record("k", writer, before, base)
        assert writer[1].mask == before[1]
        added = 4 if swapped is None else [4, swapped]
        assert record["servers"] == {"1": {"add": [added]}}
        apply_record(reader, record)
        assert [(e.entry_id, e.payload) for e in reader[1]] == [
            (e.entry_id, e.payload) for e in writer[1]
        ]

    def test_an_interner_out_of_step_refuses_the_record(self):
        writer, reader = self._twins()
        before, base = [s.mask for s in writer], len(writer[0].interner)
        writer[1].add(Entry("w1"))
        record = update_record("k", writer, before, base)
        reader[0].add(Entry("x"))  # takes index 4, the record's w1 index
        with pytest.raises(ValueError, match="index 5"):
            apply_record(reader, record)


class TestStoreFactory:
    """A server makes one :class:`MemoryBackend` per key, over the
    cluster's interner for it."""

    def test_default_factory_is_the_memory_backend(self):
        cluster = Cluster(2, seed=1)
        store = cluster.server(0).store("k")
        assert type(store) is MemoryBackend

    def test_cluster_interner_is_lazy_and_stable(self):
        cluster = Cluster(2, seed=1)
        interner = cluster.interner("fresh-key")
        assert cluster.interner("fresh-key") is interner
        assert cluster.server(1).store("fresh-key").interner is interner
