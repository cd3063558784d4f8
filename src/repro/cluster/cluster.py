"""The ``Cluster``: n servers, a network, and a seeded RNG.

Every placement strategy in :mod:`repro.strategies` runs against a
:class:`Cluster`.  The cluster also exposes the placement-level
observations the metrics need — total storage, per-server store sizes,
and the set of entries retrievable from operational servers — so
metrics never reach into server internals.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set

from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError, NoOperationalServerError
from repro.core.interning import EntryInterner
from repro.cluster.network import Network
from repro.cluster.server import Server, StateLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.storage import MemoryBackend
    from repro.obs.tracer import Tracer


class Cluster:
    """A fixed group of ``n`` simulated lookup servers.

    Parameters
    ----------
    size:
        Number of servers ``n``.  The paper fixes the server population
        for the lifetime of the service ("we will not consider adding
        and removing servers", Section 2), so the cluster size is
        immutable.
    seed:
        Seed for the cluster-wide RNG.  All randomness in strategies,
        clients, and server logics draws from this generator, so a
        seeded cluster replays identically.
    """

    def __init__(self, size: int, seed: Optional[int] = None) -> None:
        if size < 1:
            raise InvalidParameterError(f"cluster size must be >= 1, got {size}")
        # One interner per key, shared by every server, so a key's
        # entries live in a single dense index space cluster-wide and
        # store bitmasks are directly comparable (the bitset kernel).
        self._interners: Dict[str, EntryInterner] = {}
        self._servers = [Server(i, interners=self._interners) for i in range(size)]
        #: The servers' one :class:`~repro.cluster.server.StateLog`.
        self.state_log = StateLog()
        for server in self._servers:
            server.state_log = self.state_log
        self.network = Network(self._servers)
        self.rng = random.Random(seed)

    # -- topology ------------------------------------------------------------

    def interner(self, key: str) -> EntryInterner:
        """The cluster-wide shared interner for ``key``, created lazily.

        Storage backends use this to pre-seed dense index assignments
        during crash recovery, before any store is touched.
        """
        if key not in self._interners:
            self._interners[key] = EntryInterner()
        return self._interners[key]

    @property
    def size(self) -> int:
        return len(self._servers)

    @property
    def servers(self) -> List[Server]:
        return self._servers

    def server(self, server_id: int) -> Server:
        return self._servers[server_id % self.size]

    def alive_servers(self) -> List[Server]:
        return [s for s in self._servers if s.alive]

    def alive_ids(self) -> List[int]:
        return [s.server_id for s in self._servers if s.alive]

    def random_server_id(self) -> int:
        """A uniformly random server id (failed servers included).

        Clients in the paper pick servers blindly and discover failures
        by the lack of a response, so the draw covers all ``n`` ids.
        """
        return self.rng.randrange(self.size)

    def random_alive_server_id(self) -> int:
        """A uniformly random operational server id.

        Raises
        ------
        NoOperationalServerError
            If every server is failed.
        """
        alive = self.alive_ids()
        if not alive:
            raise NoOperationalServerError("all servers are failed")
        return self.rng.choice(alive)

    # -- failure control -------------------------------------------------------

    def fail(self, server_id: int) -> None:
        self.server(server_id).fail()

    def recover(self, server_id: int) -> None:
        self.server(server_id).recover()

    def fail_many(self, server_ids: Iterable[int]) -> None:
        for server_id in server_ids:
            self.fail(server_id)

    def recover_all(self) -> None:
        for server in self._servers:
            server.recover()

    @property
    def failed_count(self) -> int:
        return sum(1 for s in self._servers if not s.alive)

    # -- placement observations -------------------------------------------------

    def storage_cost(self, key: str) -> int:
        """Total entries stored across all servers (Table 1's metric).

        Counts failed servers too: storage is a provisioning cost, not
        an availability property.
        """
        return sum(s.stored_entry_count(key) for s in self._servers)

    def stores(self, key: str) -> List["MemoryBackend"]:
        """Every server's store for ``key``, indexed by server id."""
        return [s.store(key) for s in self._servers]

    def store_sizes(self, key: str) -> List[int]:
        """Per-server store sizes, indexed by server id."""
        return [s.stored_entry_count(key) for s in self._servers]

    def coverage_mask(self, key: str, alive_only: bool = True) -> int:
        """Union bitmask of the (operational) servers' stores for ``key``."""
        mask = 0
        for server in self._servers:
            if alive_only and not server.alive:
                continue
            mask |= server.store(key).mask
        return mask

    def coverage_set(self, key: str, alive_only: bool = True) -> Set[Entry]:
        """Distinct entries retrievable for ``key`` (Section 4.3).

        With ``alive_only`` (the default) only operational servers
        contribute, which is the definition the fault-tolerance
        heuristic iterates on.
        """
        interner = self.interner(key)
        return set(interner.entries_for_mask(self.coverage_mask(key, alive_only)))

    def coverage(self, key: str, alive_only: bool = True) -> int:
        """Size of the coverage set (a mask union + popcount)."""
        return self.coverage_mask(key, alive_only=alive_only).bit_count()

    def placement(self, key: str) -> Dict[int, Set[Entry]]:
        """The full placement map: server id → set of stored entries."""
        return {s.server_id: s.store(key).as_set() for s in self._servers}

    def replica_counts(self, key: str, alive_only: bool = True) -> Dict[Entry, int]:
        """How many (operational) servers hold each entry (``f_e``)."""
        counts: Dict[Entry, int] = {}
        for server in self._servers:
            if alive_only and not server.alive:
                continue
            for entry in server.store(key):
                counts[entry] = counts.get(entry, 0) + 1
        return counts

    # -- observability -------------------------------------------------------

    def install_tracer(self, tracer: "Tracer") -> None:
        """Trace transport and lifecycle activity cluster-wide.

        Installs the tracer on the network (update-propagation events)
        and every server (fail/recover transition events).  Lookup
        contacts are traced by the :class:`~repro.cluster.client.Client`,
        which carries its own tracer so lookup events get span linkage.
        """
        self.network.install_tracer(tracer)
        for server in self._servers:
            server.tracer = tracer

    def uninstall_tracer(self) -> None:
        """Stop tracing; already-recorded events stay with the tracer."""
        self.network.uninstall_tracer()
        for server in self._servers:
            server.tracer = None

    # -- maintenance --------------------------------------------------------------

    def wipe(self) -> None:
        """Erase every server's stores and state; keep stats and RNG."""
        for server in self._servers:
            server.wipe()

    def reset_stats(self) -> None:
        self.network.reset_stats()

    def __repr__(self) -> str:
        return f"Cluster(size={self.size}, failed={self.failed_count})"
