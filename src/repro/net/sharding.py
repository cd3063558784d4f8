"""The pure sharding core: ring placement and replica selection.

Everything here is arithmetic over names — no sockets, no clocks, no
randomness — so both sides of the deployment can depend on it: the
:class:`~repro.net.service.LookupService` uses it at boot to decide
which keys it hosts and with how much of each key's entry set, and
the :class:`~repro.net.router.ShardRouter` uses it per lookup to
order candidate shards.  Agreement between the two is the whole
routing contract, and it holds because both compute the same pure
functions from the same shard names.

:class:`ShardMap` is multi-probe consistent hashing (Appleton &
O'Reilly 2015): shards are hashed onto the 64-bit ring **once** — no
virtual-node tables — and a key is probed at ``probes`` independent
positions, landing on the shard closest to any probe.  More probes
flatten the load the way more virtual nodes would, and the probe
ranking yields a *deterministic replica sequence* for free: a key's
home group is the first ``replicas`` distinct shards in closest-probe
order.  The only routing storage is that ranking, kept per key the
first time the key is asked for (the shard set is immutable, so it
never goes stale): one tuple of shard names per key, at most
:data:`RANK_TABLE_CAP` keys per map, cleared when full.

:func:`partial_replica` is the paper's premise applied across
shards: a backup shard keeps only a deterministic fraction of a
key's entries, because a partial copy still yields a useful partial
answer — failover results come back short and *labelled degraded*
by the ordinary :class:`~repro.core.result.LookupResult` machinery
rather than wrong or absent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError
from repro.hashing.families import fnv1a_64

#: The hash ring is a 64-bit space.
RING = 1 << 64

_MASK = RING - 1

#: Keys a :class:`ShardMap` keeps rankings for before it starts over:
#: real key universes are a handful of scheme names, the bound is for
#: a long-lived router fed garbage keys.
RANK_TABLE_CAP = 4096


def ring_position(label: str) -> int:
    """A label's position on the ring.

    FNV-1a alone is unusable here: names differing in one character
    (``s0``/``s1``/``s2``) land within a few high-order bits of each
    other, collapsing the whole fleet onto one arc of the ring.  A
    splitmix64-style finalizer on top restores full avalanche while
    keeping the mapping a pure process-stable function of the label.
    """
    h = fnv1a_64(label) & _MASK
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & _MASK
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK
    h ^= h >> 31
    return h


class ShardMap:
    """Multi-probe consistent hashing over a fixed set of shard names.

    Parameters
    ----------
    shards:
        The shard names (order-insensitive; the ring is by hash).
    probes:
        Key probe count.  21 keeps peak/mean load within a few
        percent for realistic key counts (the 1 + ε bound improves
        with more probes) at a few extra hashes the *first* time a
        key is looked up; after that its ranking is a table read.
    """

    def __init__(self, shards: Sequence[str], probes: int = 21) -> None:
        names = sorted(set(shards))
        if not names:
            raise InvalidParameterError("ShardMap needs at least one shard")
        if probes < 1:
            raise InvalidParameterError(f"probes must be >= 1, got {probes}")
        self.probes = probes
        self._positions: Dict[str, int] = {
            name: ring_position(f"shard|{name}") for name in names
        }
        self._ranked: Dict[str, Tuple[str, ...]] = {}

    @property
    def shards(self) -> List[str]:
        return sorted(self._positions)

    def home(self, key: str, replicas: int) -> List[str]:
        """The key's home group: primary first, then backups.

        Shards are ranked by their closest clockwise distance to any
        of the key's probe positions; ties break by name so the
        mapping is total and deterministic.  The ranking is computed
        on the key's first call and read from the table after that;
        the answer is a fresh list either way.
        """
        if replicas < 1:
            raise InvalidParameterError(f"replicas must be >= 1, got {replicas}")
        # Memoized by string keys only (the rule in repro.net.codec):
        # 1, True and 1.0 are one dict key but three ring positions.
        memo = type(key) is str
        ranked = self._ranked.get(key) if memo else None
        if ranked is None:
            probe_points = [
                ring_position(f"key|{key}|{i}") for i in range(self.probes)
            ]
            by_distance = sorted(
                self._positions.items(),
                key=lambda item: (
                    min((item[1] - point) % RING for point in probe_points),
                    item[0],
                ),
            )
            ranked = tuple(name for name, _ in by_distance)
            if memo:
                if len(self._ranked) >= RANK_TABLE_CAP:
                    self._ranked.clear()
                self._ranked[key] = ranked
        return list(ranked[:replicas])

    def role(self, key: str, shard: str, replicas: int) -> Optional[int]:
        """0 for the key's primary, 1.. for backups, None if not hosted."""
        home = self.home(key, replicas)
        try:
            return home.index(shard)
        except ValueError:
            return None


def partial_replica(
    key: str, entries: Sequence[Entry], role: int, fraction: float
) -> List[Entry]:
    """The deterministic partial copy a backup shard places for ``key``.

    Backup ``role`` (1-based) keeps ``max(1, round(fraction * len))``
    entries, chosen by ranking entry ids under a keyed hash — every
    process derives the identical subset from the key and role alone,
    and distinct backup roles keep (mostly) distinct subsets, so two
    surviving backups cover more together than either alone.
    """
    if role < 1:
        raise InvalidParameterError(f"backup role must be >= 1, got {role}")
    if not 0.0 < fraction <= 1.0:
        raise InvalidParameterError(
            f"backup fraction must be in (0, 1], got {fraction}"
        )
    if not entries:
        return []
    keep = max(1, round(fraction * len(entries)))
    ranked = sorted(
        entries,
        key=lambda entry: (
            ring_position(f"backup|{key}|{role}|{entry.entry_id}"),
            entry.entry_id,
        ),
    )
    return ranked[:keep]


__all__ = ["RANK_TABLE_CAP", "RING", "ShardMap", "partial_replica", "ring_position"]
