"""Hot-key reply cache: packed lookup replies, dropped on mutation.

Production lookup traffic is Zipf-shaped: a handful of hot keys absorb
most requests, and the service re-runs the same deterministic
per-server answer — and re-encodes the same reply bytes — for every
one of them.  :class:`ReplyCache` short-circuits that path: it is an
LRU keyed by ``(codec, opcode, scheme key, server id, options
fingerprint)`` whose values are the *fully materialised* reply
payloads — a :class:`~repro.net.codec.Prepacked` body on the
binary path (so a hit costs one memcpy when the frame is packed) or
the already-JSON-encoded value object on the JSON path (so a hit skips
``encode_value`` entirely).

Soundness comes from two rules enforced by the service, not here:

1. **Only deterministic replies are cached.**  A per-server lookup
   answer consumes the cluster RNG only when ``0 < target < |store|``
   (:meth:`EntryStore.sample <repro.cluster.server.EntryStore.sample>`
   short-circuits to the full local list otherwise).  The service only
   caches the RNG-free case, so a cache-enabled service draws exactly
   the same RNG stream as a cache-disabled one and every reply —
   cached or not — is byte-identical between the two.
2. **Invalidate before apply; a resident row is current.**  Whatever
   is about to change a scheme's stores — a local add/delete/place, a
   writer delta, a snapshot adoption — first drops that scheme's rows
   here (:meth:`invalidate`, or :meth:`clear` on a resync), *before*
   the stores move and before any reply is sent.  A row is only ever
   filled from the stores as they stand, so presence alone means
   validity: there is no stamp to compare, and a reader can never
   observe a pre-mutation answer after the mutation's reply.

The counters (hits / misses / evictions / invalidations) are plain
ints so the hot path stays cheap; :meth:`publish` mirrors them into a
:class:`~repro.obs.metrics.MetricsRegistry` with the same idempotent
``set_to`` ledger convention :class:`~repro.cluster.network
.MessageStats` uses, and :meth:`snapshot` returns them for the
``info.capabilities`` wire surface.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.core.exceptions import InvalidParameterError

#: Default per-process capacity; small enough that a full cache of
#: ~kB replies stays in the tens of MB, large enough to cover a hot
#: set of (scheme x server x target) combinations many times over.
DEFAULT_CAPACITY = 1024


class ReplyCache:
    """A size-bounded LRU of packed lookup replies.

    Parameters
    ----------
    capacity:
        Maximum resident entries; the least-recently-used entry is
        evicted on overflow.  Must be positive (a disabled cache is
        represented by *no* cache, not a zero-capacity one).
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "invalidations", "_entries")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise InvalidParameterError(
                f"cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        #: key -> packed payload; insertion order is recency order
        #: (MRU at the end).
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The payload cached under ``key``, or None."""
        payload = self._entries.get(key)
        if payload is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return payload

    def put(self, key: Hashable, payload: Any) -> None:
        """Remember ``payload`` for ``key`` (MRU)."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = payload
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self, scheme_key: str) -> int:
        """Drop every cached reply for ``scheme_key``; returns the count.

        Cache keys carry the scheme key at index 2 (see the service's
        ``_cache_slot``); anything else shaped differently is left
        alone.  Called by the service on every mutation, *before* the
        mutating reply is sent.
        """
        doomed = [
            key
            for key in self._entries
            if isinstance(key, tuple) and len(key) > 2 and key[2] == scheme_key
        ]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> int:
        """Drop everything (e.g. after a full store resync)."""
        dropped = len(self._entries)
        self._entries.clear()
        self.invalidations += dropped
        return dropped

    @property
    def hit_rate(self) -> float:
        """Computed hits / (hits + misses); 0.0 before any traffic."""
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    def export_hot(self, limit: int = 256) -> List[Tuple[Hashable, Any]]:
        """The MRU ``(key, payload)`` rows, hottest first.

        Feeds the worker fleet's warm handoff: the writer ships its
        current hot set to a (re)spawning reader so the reader's first
        hot-key request is already a hit.
        """
        return list(itertools.islice(reversed(self._entries.items()), limit))

    def snapshot(self) -> Dict[str, Any]:
        """The counters + occupancy, as published in ``info.capabilities``."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 6),
        }

    def publish(self, metrics: Any, prefix: str = "net.cache") -> None:
        """Mirror the counters into ``metrics`` (idempotent ``set_to``)."""
        metrics.counter(f"{prefix}.hits").set_to(self.hits)
        metrics.counter(f"{prefix}.misses").set_to(self.misses)
        metrics.counter(f"{prefix}.evictions").set_to(self.evictions)
        metrics.counter(f"{prefix}.invalidations").set_to(self.invalidations)
        metrics.gauge(f"{prefix}.size").set(len(self._entries))
        metrics.gauge(f"{prefix}.hit_rate").set(self.hit_rate)


__all__ = [
    "DEFAULT_CAPACITY",
    "ReplyCache",
]
