"""The storage backend interface and the default in-memory backend.

Every simulated server keeps one local entry store per key.  The store
used to be a single concrete class (``EntryStore`` in
:mod:`repro.cluster.server`); it is now a *backend* behind the
:class:`StorageBackend` interface so a deployment can choose where the
entries live:

- :class:`MemoryBackend` — the original bitset-backed in-memory store,
  still the default everywhere.  ``EntryStore`` remains as an alias so
  existing imports and type references keep working.
- ``repro.storage.appendlog.LogBackend`` — the same in-memory
  representation with every mutation journaled to an append log, so a
  crashed process rebuilds its stores bit-identically on restart.

The interface is exactly the store surface the rest of the codebase
already depends on, made explicit.  Four layers are load-bearing and
pin the contract:

- **Seeded RNG sampling order** — :meth:`StorageBackend.sample` and
  :meth:`StorageBackend.pop_random` must draw from the *insertion
  ordered* entry list, so seeded runs replay identically whichever
  backend holds the entries.
- **The bitset kernel** — :meth:`StorageBackend.mask` and the parallel
  dense-index list must stay consistent with the shared per-key
  :class:`~repro.core.interning.EntryInterner`; coverage questions
  reduce to ``int.__or__`` + ``bit_count()``.
- **Writer-bus delta fan-out** — deltas are bitmask diffs, so two
  backends that report equal masks after the same mutation sequence
  are interchangeable mid-fleet.
- **Reply-cache epoch stamps** — a cached reply is valid exactly when
  the store state it was computed from is current; backends must make
  every mutation observable through the public mutators (no
  out-of-band state changes).

Backends are constructed per ``(key, server)`` by a *store factory*
(see :data:`StoreFactory`) threaded through
:class:`~repro.cluster.cluster.Cluster` and
:class:`~repro.cluster.server.Server`; the default factory is plain
:class:`MemoryBackend`.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

from repro.core.entry import Entry
from repro.core.interning import EntryInterner

if TYPE_CHECKING:  # pragma: no cover - typing only
    StoreFactory = Callable[[str, int, EntryInterner], "StorageBackend"]


class StorageBackend(ABC):
    """The per-(key, server) entry store contract.

    An insertion-ordered set of entries with O(1) membership, dense
    interned indices, and a bitmask mirror.  Implementations must keep
    three views in lock-step after every mutation:

    - the ordered entry list (``as_list``/``__iter__`` order == the
      order entries were added; removal preserves the relative order
      of survivors),
    - the parallel dense-index list (``indices()``),
    - the bitmask over the interner's index space (``mask``).

    Recovery invariant (what "bit-identical" means for a durable
    backend): after a crash and replay, ``as_list()``, ``indices()``
    and ``mask`` must equal the never-crashed store's, entry for entry
    and bit for bit — so sampling the recovered store with an equal
    RNG state yields the same answer bytes.
    """

    __slots__ = ()

    @property
    @abstractmethod
    def mask(self) -> int:
        """Bitmask over the interner's dense index space."""

    @property
    @abstractmethod
    def interner(self) -> EntryInterner:
        """The shared per-key interner this store's indices live in."""

    @abstractmethod
    def indices(self) -> list[int]:
        """Dense indices of the held entries, in insertion order."""

    @abstractmethod
    def fragments(self, encode: Callable[[str], Any]) -> Optional[list]:
        """``encode(entry_id)`` per held entry, in insertion order.

        Read from the interner's memo table for ``encode`` (see
        :meth:`~repro.core.interning.EntryInterner.fragments`), so
        serialising a store is one C-level ``map`` over ``indices()``.
        ``None`` when the store holds a *rider* — an entry that is not
        an exact-type, payload-free :class:`Entry`, whose encoding an
        id alone cannot give; the caller then walks ``as_list()``.
        """

    @abstractmethod
    def add(self, entry: Entry) -> bool:
        """Insert ``entry``; return True if it was not already present."""

    @abstractmethod
    def discard(self, entry: Entry) -> bool:
        """Remove ``entry`` if present; return True if it was removed."""

    @abstractmethod
    def replace(self, old: Entry, new: Entry) -> bool:
        """Swap ``old`` for ``new`` in place, preserving position."""

    @abstractmethod
    def sample(self, count: int, rng: random.Random) -> list[Entry]:
        """``min(count, len(self))`` uniform samples; ``<= 0`` = all."""

    @abstractmethod
    def pop_random(self, rng: random.Random) -> Entry:
        """Remove and return one uniformly random entry."""

    @abstractmethod
    def clear(self) -> None:
        """Drop every entry."""

    @abstractmethod
    def __contains__(self, entry: Entry) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def __iter__(self) -> Iterator[Entry]: ...

    @abstractmethod
    def as_list(self) -> list[Entry]:
        """The held entries in insertion order."""

    @abstractmethod
    def as_set(self) -> set[Entry]: ...

    def restore(self, entries: Iterable[Entry]) -> None:
        """Replace the whole contents with ``entries``, in order.

        The snapshot/resync surface: one logical operation, so a
        durable backend can journal it as a single record instead of a
        clear plus N adds.  The default is exactly clear-then-add.
        """
        self.clear()
        for entry in entries:
            self.add(entry)


def _is_rider(entry: Entry) -> bool:
    """Whether serialising ``entry`` takes more than its id."""
    return entry.__class__ is not Entry or entry.payload is not None


class MemoryBackend(StorageBackend):
    """An insertion-ordered set of entries with O(1) membership.

    Servers need three things from their local store: membership tests
    (Fixed-x's "do I already hold v?"), uniform random sampling (every
    strategy's per-server lookup answer), and deterministic iteration
    order so seeded runs are reproducible.

    Internally the store is backed by the bitset placement kernel's
    representation: entries are interned into a dense, stable index
    space (shared cluster-wide per key via an
    :class:`~repro.core.interning.EntryInterner`) and the store keeps,
    alongside the ordered entry list, a parallel list of dense indices
    plus an integer bitmask with one bit per held entry.  Membership is
    a bit test, and coverage/union questions over many stores reduce to
    ``int.__or__`` + ``bit_count()`` (see ``Cluster.coverage``).
    Sampling still draws from the ordered list, so seeded RNG streams
    are identical to the pre-bitset representation.

    The index list is also what the store is serialised and searched
    by.  Two facts about it are kept current by every mutator so both
    stay O(1) to ask: how many held entries are *riders* (see
    :meth:`fragments`), and whether the list is still ascending — new
    entries get new indices and removal keeps order, so it is until an
    entry is re-added below the tail or replaced — in which case a
    removal finds its position by ``bisect`` instead of a scan.
    """

    __slots__ = ("_entries", "_indices", "_mask", "_interner", "_riders", "_ascending")

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
        self._ascending: bool = True
        for entry in entries:
            self.add(entry)

    @property
    def mask(self) -> int:
        """Bitmask over the interner's dense index space (one bit per entry)."""
        return self._mask

    @property
    def interner(self) -> EntryInterner:
        return self._interner

    def indices(self) -> list[int]:
        """Dense indices of the held entries, in insertion order."""
        return list(self._indices)

    @property
    def riders(self) -> int:
        """How many held entries carry a payload or subclass ``Entry``."""
        return self._riders

    @property
    def ascending(self) -> bool:
        """Whether ``indices()`` is known to be in increasing order."""
        return self._ascending

    def fragments(self, encode: Callable[[str], Any]) -> Optional[list]:
        if self._riders:
            return None
        return list(map(self._interner.fragments(encode).__getitem__, self._indices))

    def _position(self, index: int) -> int:
        """Where the held ``index`` sits in the index list."""
        if self._ascending:
            return bisect_left(self._indices, index)
        return self._indices.index(index)

    def _removed(self, position: int) -> Entry:
        """Pop ``position`` from both lists; the mask is the caller's."""
        self._indices.pop(position)
        entry = self._entries.pop(position)
        if self._riders and _is_rider(entry):
            self._riders -= 1
        return entry

    def add(self, entry: Entry) -> bool:
        """Insert ``entry``; return True if it was not already present."""
        index = self._interner.intern(entry)
        above = self._mask >> index
        if above:
            if above & 1:
                return False
            # A held index above this one: appending ends the order.
            self._ascending = False
        if entry.__class__ is not Entry or entry.payload is not None:
            self._riders += 1  # _is_rider, inlined: the placement loop
        self._mask |= 1 << index
        self._entries.append(entry)
        self._indices.append(index)
        return True

    def discard(self, entry: Entry) -> bool:
        """Remove ``entry`` if present; return True if it was removed."""
        index = self._interner.index_of(entry.entry_id)
        if index is None or not (self._mask >> index) & 1:
            return False
        self._removed(self._position(index))
        self._mask ^= 1 << index
        return True

    def replace(self, old: Entry, new: Entry) -> bool:
        """Swap ``old`` for ``new`` in place, preserving position."""
        old_index = self._interner.index_of(old.entry_id)
        if old_index is None or not (self._mask >> old_index) & 1:
            return False
        new_index = self._interner.intern(new)
        if (self._mask >> new_index) & 1:
            return False
        position = self._position(old_index)
        self._riders += _is_rider(new) - _is_rider(self._entries[position])
        self._ascending = False
        self._entries[position] = new
        self._indices[position] = new_index
        self._mask ^= (1 << old_index) | (1 << new_index)
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
        self._entries.clear()
        self._indices.clear()
        self._mask = 0
        self._riders = 0
        self._ascending = True

    def __contains__(self, entry: Entry) -> bool:
        index = self._interner.index_of(entry.entry_id)
        return index is not None and bool((self._mask >> index) & 1)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def as_list(self) -> list[Entry]:
        return list(self._entries)

    def as_set(self) -> set[Entry]:
        return set(self._entries)


#: Backwards-compatible name: the store every server used before the
#: backend split.  Kept as a real alias (not a subclass) so instance
#: checks and constructed objects are indistinguishable from before.
EntryStore = MemoryBackend


__all__ = ["EntryStore", "MemoryBackend", "StorageBackend"]
