"""The per-(key, server) entry store, and the update record.

Every simulated server keeps one local entry store per key: a
:class:`MemoryBackend`, the bitset-backed in-memory store.  What a
write did to a key's stores is one *update record*
(:func:`update_record`), the diff of every server's mask around the
write, by dense index.  The append-log journal
(:mod:`repro.storage.appendlog`) appends it, the worker fleet's writer
ships it to the readers as their delta, and a reader applies it with
:func:`apply_record`.

Three properties are load-bearing:

- **Seeded RNG sampling order** — :meth:`MemoryBackend.sample` and
  :meth:`MemoryBackend.pop_random` draw from the entry list, which is
  in ascending dense index: the order is a function of the store's
  *set* of entries, never of the order they arrived in, so seeded runs
  replay identically however the same set was built.
- **The bitset kernel** — :attr:`MemoryBackend.mask` and the parallel
  dense-index list stay consistent with the shared per-key
  :class:`~repro.core.interning.EntryInterner`; coverage questions
  reduce to ``int.__or__`` + ``bit_count()``.
- **Update records** — a record is a bitmask diff, so two stores over
  equal interners that report equal masks hold equal lists: a reader
  that applied the writer's records, or a store recovered from the
  journal, answers with the writer's bytes.  A record names the index
  of every entry it interns, and the side applying it checks that its
  interner agrees.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import starmap
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.entry import Entry
from repro.core.interning import EntryInterner, iter_mask_indices

def _is_rider(entry: Entry) -> bool:
    """Whether serialising ``entry`` takes more than its id."""
    return entry.__class__ is not Entry or entry.payload is not None


class MemoryBackend:
    """A set of entries with O(1) membership, iterated in index order.

    Servers need three things from their local store: membership tests
    (Fixed-x's "do I already hold v?"), uniform random sampling (every
    strategy's per-server lookup answer), and deterministic iteration
    order so seeded runs are reproducible.

    Internally the store is backed by the bitset placement kernel's
    representation: entries are interned into a dense, stable index
    space (shared cluster-wide per key via an
    :class:`~repro.core.interning.EntryInterner`) and the store keeps,
    alongside the entry list, a parallel list of dense indices plus an
    integer bitmask with one bit per held entry.  Membership is a bit
    test, and coverage/union questions over many stores reduce to
    ``int.__or__`` + ``bit_count()`` (see ``Cluster.coverage``).

    Both lists are in ascending dense index.  A newly interned entry
    gets the highest index, so its add appends; an add below a held
    index (a re-add, or a placement that visits entries out of index
    order) is inserted at its ``bisect`` position, and a removal finds
    its position the same way.  The index list is also what the
    store is serialised by, so every mutator keeps one more fact about
    it current: how many held entries are *riders* (see
    :meth:`fragments`).
    """

    __slots__ = ("_entries", "_indices", "_mask", "_interner", "_riders", "_touched")

    def __init__(
        self,
        entries: Iterable[Entry] = (),
        interner: Optional[EntryInterner] = None,
    ) -> None:
        self._interner = interner if interner is not None else EntryInterner()
        self._entries: list[Entry] = []
        self._indices: list[int] = []
        self._mask: int = 0
        self._riders: int = 0
        self._touched: int = 0
        for entry in entries:
            self.add(entry)

    @property
    def mask(self) -> int:
        """Bitmask over the interner's dense index space (one bit per entry)."""
        return self._mask

    @property
    def interner(self) -> EntryInterner:
        """The shared per-key interner this store's indices live in."""
        return self._interner

    def indices(self) -> list[int]:
        """Dense indices of the held entries, ascending."""
        return list(self._indices)

    @property
    def riders(self) -> int:
        """How many held entries carry a payload or subclass ``Entry``."""
        return self._riders

    def fragments(self, encode: Callable[[str], Any]) -> Optional[list]:
        """``encode(entry_id)`` per held entry, in store order.

        Read from the interner's memo table for ``encode`` (see
        :meth:`~repro.core.interning.EntryInterner.fragments`), so
        serialising a store is one C-level ``map`` over ``indices()``.
        ``None`` when the store holds a *rider* — an entry that is not
        an exact-type, payload-free :class:`Entry`, whose encoding an
        id alone cannot give; the caller then walks ``as_list()``.
        """
        if self._riders:
            return None
        return list(map(self._interner.fragments(encode).__getitem__, self._indices))

    def _removed(self, position: int) -> Entry:
        """Pop ``position`` from both lists; the mask is the caller's."""
        index = self._indices.pop(position)
        entry = self._entries.pop(position)
        if self._riders and _is_rider(entry):
            self._riders -= 1
            self._touched |= 1 << index
        return entry

    def membership(self, mask: Optional[int] = None) -> list:
        """The held indices — all, or those of ``mask`` — ascending, as
        an update record lists them: a held entry that carries a payload
        as ``[index, payload]``.  ``mask`` may name held indices only."""
        indices = self._indices if mask is None else list(iter_mask_indices(mask))
        if not self._riders:
            return list(indices)
        entries = self._entries
        if mask is not None:
            entries = [entries[bisect_left(self._indices, i)] for i in indices]
        return [
            i if e.payload is None else [i, e.payload] for i, e in zip(indices, entries)
        ]

    def take_touched(self) -> int:
        """The indices a rider was added at or removed from since the
        last call, as a mask; the tally then starts over.  A write that
        drops a rider and adds its id back leaves the mask as it was,
        so this is how its update record learns of the swap."""
        touched, self._touched = self._touched, 0
        return touched

    def add(self, entry: Entry) -> bool:
        """Insert ``entry``; return True if it was not already present."""
        return self.add_at(self._interner.intern(entry), entry)

    def add_at(self, index: int, entry: Entry) -> bool:
        """:meth:`add` for an ``entry`` the interner holds at ``index``."""
        above = self._mask >> index
        if above & 1:
            return False
        if entry.__class__ is not Entry or entry.payload is not None:
            self._riders += 1  # _is_rider, inlined: the placement loop
            self._touched |= 1 << index
        self._mask |= 1 << index
        if above:
            # A held index above this one: insert in place.
            position = bisect_left(self._indices, index)
            self._entries.insert(position, entry)
            self._indices.insert(position, index)
        else:
            self._entries.append(entry)
            self._indices.append(index)
        return True

    def discard(self, entry: Entry) -> bool:
        """Remove ``entry`` if present; return True if it was removed."""
        index = self._interner.index_of(entry.entry_id)
        return index is not None and self.discard_at(index)

    def discard_at(self, index: int) -> bool:
        """:meth:`discard` of the entry at dense ``index``."""
        if not (self._mask >> index) & 1:
            return False
        self._removed(bisect_left(self._indices, index))
        self._mask ^= 1 << index
        return True

    def sample(self, count: int, rng: random.Random) -> list[Entry]:
        """Return ``min(count, len(self))`` uniformly sampled entries.

        This implements the per-server lookup answer the paper
        specifies for every strategy: "returns t randomly selected
        entries stored on the server or all the entries if the total
        is less than t".  ``count <= 0`` means "everything".
        """
        if count <= 0 or count >= len(self._entries):
            return list(self._entries)
        return rng.sample(self._entries, count)

    def pop_random(self, rng: random.Random) -> Entry:
        """Remove and return one uniformly random entry."""
        if not self._entries:
            raise KeyError("pop_random from an empty store")
        position = rng.randrange(len(self._entries))
        self._mask ^= 1 << self._indices[position]
        return self._removed(position)

    def clear(self) -> None:
        """Drop every entry."""
        if self._riders:
            for index, entry in zip(self._indices, self._entries):
                if _is_rider(entry):
                    self._touched |= 1 << index
        self._entries.clear()
        self._indices.clear()
        self._mask = 0
        self._riders = 0

    def __contains__(self, entry: Entry) -> bool:
        index = self._interner.index_of(entry.entry_id)
        return index is not None and bool((self._mask >> index) & 1)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def as_list(self) -> list[Entry]:
        """The held entries in ascending dense index."""
        return list(self._entries)

    def as_set(self) -> set[Entry]:
        return set(self._entries)


def masks_before(stores: Sequence[MemoryBackend]) -> list[int]:
    """The stores' masks, as :func:`update_record` takes them for
    ``before``.  Each store's :meth:`~MemoryBackend.take_touched` tally
    starts over here, so the record sees the riders this write touched."""
    for store in stores:
        store.take_touched()
    return [store.mask for store in stores]


def update_record(
    key: str,
    stores: Sequence[MemoryBackend],
    before: Optional[Sequence[int]] = None,
    base: int = 0,
) -> Optional[dict]:
    """What a write did to ``key``'s ``stores`` (listed by server id), as
    one update record; None when nothing moved.

    ``before`` are the stores' masks (:func:`masks_before`) and
    ``base`` the interner's length from before the write; by default,
    empty stores and interner — the record of everything the stores
    hold.  The record holds the entries the write interned (``new``, as
    ``[entry_id, payload]`` in index order, the first at ``base``) and,
    per server whose store moved, the indices it gained (``add``,
    :meth:`~MemoryBackend.membership`'s spelling) — a held index whose
    rider was swapped counts as gained again — and lost (``drop``).
    Diffing every mask, not the servers a message reached, is what
    makes a record exact.
    """
    servers = {}
    for sid, (store, old) in enumerate(zip(stores, before or [0] * len(stores))):
        new = store.mask
        gained = new & (~old | store.take_touched())
        if gained or old & ~new:
            change = {}
            if gained:
                # From empty, the whole store: listed without a mask walk.
                change["add"] = store.membership(None if gained == new else gained)
            if old & ~new:
                change["drop"] = list(iter_mask_indices(old & ~new))
            servers[str(sid)] = change
    interner = stores[0].interner
    if not servers and len(interner) == base:
        return None
    record: dict = {"op": "delta", "key": key}
    if len(interner) > base:
        record["base"] = base
        record["new"] = interner.pairs(base)
    record["servers"] = servers
    return record


def apply_record(
    stores: Sequence[MemoryBackend], record: dict, replace: bool = False
) -> None:
    """Apply an update record to its key's ``stores`` (by server id).

    The interning step first: ``new`` must land at the indices the
    record names (:meth:`~repro.core.interning.EntryInterner.extend`),
    or nothing else is touched.  Then membership is set and cleared by
    index, with no id resolved anywhere — after every store is emptied,
    with ``replace``, for a record of everything from empty stores.  A
    bare index in ``add`` holds the id payload-free, as the interner's
    own entry object where that one is payload-free too; an ``add`` at
    a held index swaps the record's entry in.
    Server ids are the caller's to check: as a list index ``-1`` names
    the last server.
    """
    interner = stores[0].interner
    interner.extend(starmap(Entry, record.get("new", ())), record.get("base", 0))
    if replace:
        for store in stores:
            store.clear()
    entry_at = interner.entry_at
    for sid, change in record["servers"].items():
        store = stores[int(sid)]
        add_at = store.add_at
        # The whole of a store, from a resync or a recovery: kept tight.
        for item in change.get("add", ()):
            if item.__class__ is int:
                index, entry = item, entry_at(item)
                if entry.payload is not None:
                    entry = Entry(entry.entry_id)
            else:
                index, payload = item
                entry = Entry(entry_at(index).entry_id, payload)
            if not add_at(index, entry):
                store.discard_at(index)
                add_at(index, entry)
        for index in change.get("drop", ()):
            store.discard_at(index)


__all__ = [
    "MemoryBackend",
    "apply_record",
    "masks_before",
    "update_record",
]
