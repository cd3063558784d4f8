"""Dense entry interning: stable small-integer indices per key.

The bitset placement kernel represents each server's local store as an
integer bitmask over a *dense index space*: the first entry ever placed
for a key gets index 0, the next distinct entry index 1, and so on, in
placement order.  Union, membership, and coverage then become single
``int`` operations (``|``, bit tests, ``bit_count``) instead of Python
set algebra over :class:`~repro.core.entry.Entry` objects, and the
Monte-Carlo lookup loops can accumulate per-entry counts into a flat
array indexed by the same integers.

Indices are *stable for the lifetime of the interner*: deleting an
entry does not free its index, and re-adding the same ``entry_id``
reuses it.  This is what makes masks comparable across placements of
the same cluster and makes cached count arrays meaningful.  An interner
is shared by all servers of one cluster per key (see
:class:`~repro.cluster.cluster.Cluster`), so one entry has one index
everywhere.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.entry import Entry


class EntryInterner:
    """Assigns each distinct ``entry_id`` a dense, stable index.

    The mapping only ever grows; index ``i`` permanently names the
    ``i``-th distinct entry interned.  The canonical :class:`Entry`
    object kept for an index is the first one interned for that id
    (payloads do not participate in identity, so replicas collapse).
    """

    __slots__ = ("_index_by_id", "_entries", "_fragments")

    def __init__(self) -> None:
        self._index_by_id: Dict[str, int] = {}
        self._entries: List[Entry] = []
        #: One table per output format, keyed by its encoder; see
        #: :meth:`fragments`.
        self._fragments: Dict[Callable[[str], Any], List[Any]] = {}

    def intern(self, entry: Entry) -> int:
        """Return the dense index for ``entry``, assigning one if new."""
        index = self._index_by_id.get(entry.entry_id)
        if index is None:
            index = len(self._entries)
            self._index_by_id[entry.entry_id] = index
            self._entries.append(entry)
        return index

    def index_of(self, entry_id: str) -> Optional[int]:
        """The index for ``entry_id``, or None if never interned."""
        return self._index_by_id.get(entry_id)

    def entry_at(self, index: int) -> Entry:
        """The canonical entry at ``index``."""
        return self._entries[index]

    def fragments(self, encode: Callable[[str], Any]) -> List[Any]:
        """The table ``index -> encode(entry_id)``, grown to every index.

        A memo of one encoder's output per entry: a store serialises
        itself as ``map(table.__getitem__, indices)`` instead of
        walking :class:`Entry` objects.  ``encode`` sees the id alone,
        so the table says nothing about payloads or subclasses — the
        caller must know its entries carry neither (a store counts the
        ones that do).  Built on first use and extended when the
        interner has grown since; indices are stable, so rows never
        change.
        """
        table = self._fragments.get(encode)
        if table is None:
            table = self._fragments[encode] = []
        known = len(table)
        if known < len(self._entries):
            table.extend(encode(e.entry_id) for e in self._entries[known:])
        return table

    def mask_of(self, entries: Iterable[Entry]) -> int:
        """Bitmask with the bit of each (already interned) entry set.

        Entries never interned are interned on the fly; the mask is a
        pure function of the entry ids.
        """
        mask = 0
        for entry in entries:
            mask |= 1 << self.intern(entry)
        return mask

    def entries_for_mask(self, mask: int) -> List[Entry]:
        """The canonical entries of every set bit, in index order."""
        out: List[Entry] = []
        while mask:
            low = mask & -mask
            out.append(self._entries[low.bit_length() - 1])
            mask ^= low
        return out

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EntryInterner({len(self._entries)} entries)"


def iter_mask_indices(mask: int):
    """Yield the set-bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
