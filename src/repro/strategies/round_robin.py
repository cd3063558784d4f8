"""Round-Robin-y: deal entries to servers round-robin (§3.4, §5.4).

Entry ``v_i`` (sequence position ``i``) is stored on servers
``i .. i+y-1 (mod n)``, so every entry has exactly ``y`` copies, every
server holds ``≈ y·h/n`` entries, and servers ``s`` and ``s+y`` share
nothing — which is why a client walking ``s, s+y, s+2y, ...`` gains
``h/n`` *new* entries per extra contact and Round-Robin has the lowest
lookup cost of the partial schemes (Figure 4) and zero unfairness.

Dynamic updates maintain the dense round-robin sequence with the
head/tail counter protocol of Figures 10–11: server 1 (id 0 here)
hosts a ``head`` counter (the oldest live sequence position) and a
``tail`` counter (the next free position).  An add appends at ``tail``;
a delete broadcasts ``remove(v, head)`` and the entry at position
``head`` *migrates* into the hole the deletion leaves, keeping the
sequence dense.  The counter host is a serialization bottleneck and
every delete still needs a broadcast to find ``v`` — the paper's §6.3
argument for preferring Hash-y under high update rates.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError, NoOperationalServerError
from repro.core.result import LookupResult
from repro.cluster.client import Stride
from repro.cluster.cluster import Cluster
from repro.cluster.messages import (
    AddRequest,
    DeleteRequest,
    Message,
    MigrateRequest,
    PlaceRequest,
    QueryCounters,
    RemoveReplacement,
    RemoveWithHead,
    SetCounters,
    StorePositioned,
)
from repro.cluster import is_undelivered
from repro.cluster.network import Network
from repro.cluster.server import Server
from repro.strategies.base import LookupProfile, PlacementStrategy, StrategyLogic

#: Server id that hosts the head/tail counters (the paper's "server 1").
COUNTER_HOST = 0


class _RoundRobinLogic(StrategyLogic):
    """Server behaviour for Round-Robin-y.

    Per-server per-key state:

    - ``positions``: entry id → sequence position of the local copy
      (all ``y`` copies of an entry share one position).
    - On the counter host only: ``head`` and ``tail``.
    - On whichever server is currently resolving a migration:
      ``migrations``: entry id → ``{"count", "replacement"}`` — the
      pseudocode's ``M[v]`` and ``R[v]``.

    The first two are written through :meth:`Server.set_state
    <repro.cluster.server.Server.set_state>`, which is what the
    journal patches from; ``migrations`` lives only within one update.
    """

    def handle_message(self, server: Server, message: Message, network: Network) -> Any:
        if isinstance(message, PlaceRequest):
            return self._handle_place(message, network)
        if isinstance(message, AddRequest):
            return self._handle_add(server, message, network)
        if isinstance(message, DeleteRequest):
            return self._handle_delete(server, message, network)
        if isinstance(message, StorePositioned):
            store = server.store(self.key)
            store.add(message.entry)
            self._set_position(server, message.entry.entry_id, message.position)
            return True
        if isinstance(message, SetCounters):
            server.set_state(self.key, "head", message.head)
            server.set_state(self.key, "tail", message.tail)
            return True
        if isinstance(message, QueryCounters):
            state = server.state(self.key)
            return (state.get("head", 0), state.get("tail", 0))
        if isinstance(message, RemoveWithHead):
            return self._handle_remove(server, message, network)
        if isinstance(message, MigrateRequest):
            return self._handle_migrate(server, message, network)
        if isinstance(message, RemoveReplacement):
            return self._handle_remove_replacement(server, message)
        raise TypeError(f"Round-Robin-y cannot handle {type(message).__name__}")

    # -- helpers -------------------------------------------------------------

    def _positions(self, server: Server) -> Dict[str, int]:
        """The server's ``positions`` map, created empty on first use."""
        positions = server.state(self.key).get("positions")
        if positions is None:
            positions = {}
            server.set_state(self.key, "positions", positions)
        return positions

    def _set_position(
        self, server: Server, entry_id: str, position: Optional[int]
    ) -> None:
        """Record where ``entry_id``'s local copy sits; None forgets it."""
        self._positions(server)
        server.set_state(self.key, "positions", position, entry_id)

    def _entry_at(self, server: Server, position: int) -> Optional[Entry]:
        """The local entry stored under sequence ``position``, if any."""
        positions = self._positions(server)
        for entry in server.store(self.key):
            if positions.get(entry.entry_id) == position:
                return entry
        return None

    # -- placement -------------------------------------------------------------

    def _handle_place(self, message: PlaceRequest, network: Network) -> bool:
        """Deal the batch out round-robin, honouring the storage budget.

        Copies are dealt round-major (first one copy of every entry,
        then second copies, ...) so that when a storage budget
        truncates placement, coverage degrades as ``min(budget, h)`` —
        the paper's "keep a subset of (v1..vh)" rule for Figure 6.
        With no budget the result is identical to the paper's
        entry-major description.
        """
        strategy = self.strategy
        n = network.size
        budget = strategy.max_total_storage
        placed = 0
        for round_index in range(strategy.y):
            for position, entry in enumerate(message.entries):
                if budget is not None and placed >= budget:
                    break
                network.send(
                    (position + round_index) % n,
                    self.key,
                    StorePositioned(entry, position),
                )
                placed += 1
        for replica in range(self.strategy.counter_replicas):
            network.send(
                replica, self.key, SetCounters(head=0, tail=len(message.entries))
            )
        return True

    def _sync_counters(self, server: Server, network: Network) -> None:
        """Reconcile with fellow counter replicas before sequencing.

        Takes the element-wise max of (head, tail) across operational
        replicas, so a counter host that recovered from a failure
        cannot sequence updates from stale values.  Counters are
        monotone, so max is the correct merge.
        """
        state = server.state(self.key)
        head = state.get("head", 0)
        tail = state.get("tail", 0)
        for replica in range(self.strategy.counter_replicas):
            if replica == server.server_id:
                continue
            reply = network.send(replica, self.key, QueryCounters())
            if is_undelivered(reply) or reply is None:
                continue
            peer_head, peer_tail = reply
            head = max(head, peer_head)
            tail = max(tail, peer_tail)
        server.set_state(self.key, "head", head)
        server.set_state(self.key, "tail", tail)

    def _mirror_counters(self, server: Server, network: Network) -> None:
        """Propagate head/tail to the other counter replicas (§5.4 fn).

        The paper notes replication "incur[s] extra overhead in making
        sure the values for the counters are consistent" — that
        overhead is these point-to-point messages, visible in the
        update cost accounting.
        """
        state = server.state(self.key)
        update = SetCounters(state.get("head", 0), state.get("tail", 0))
        for replica in range(self.strategy.counter_replicas):
            if replica != server.server_id:
                network.send(replica, self.key, update)

    # -- adds ----------------------------------------------------------------------

    def _handle_add(self, server: Server, message: AddRequest, network: Network) -> bool:
        """Counter host: append the new entry at the tail position."""
        if self.strategy.counter_replicas > 1:
            self._sync_counters(server, network)
        position = server.state(self.key).get("tail", 0)
        for round_index in range(self.strategy.y):
            network.send(
                (position + round_index) % network.size,
                self.key,
                StorePositioned(message.entry, position),
            )
        server.set_state(self.key, "tail", position + 1)
        if self.strategy.counter_replicas > 1:
            self._mirror_counters(server, network)
        return True

    # -- deletes (Figure 11) ----------------------------------------------------------

    def _handle_delete(
        self, server: Server, message: DeleteRequest, network: Network
    ) -> bool:
        """Counter host: broadcast remove(v, head) and advance head."""
        if self.strategy.counter_replicas > 1:
            self._sync_counters(server, network)
        head = server.state(self.key).get("head", 0)
        network.broadcast(self.key, RemoveWithHead(message.entry, head))
        server.set_state(self.key, "head", head + 1)
        if self.strategy.counter_replicas > 1:
            self._mirror_counters(server, network)
        return True

    def _handle_remove(
        self, server: Server, message: RemoveWithHead, network: Network
    ) -> bool:
        """Any holder of ``v``: delete it, then plug the hole.

        The holder asks the head server to migrate the head entry into
        the vacated position.  Non-holders ignore the message, exactly
        as in the pseudocode.
        """
        entry = message.entry
        store = server.store(self.key)
        if entry not in store:
            return False
        hole_position = self._positions(server)[entry.entry_id]
        self._set_position(server, entry.entry_id, None)
        store.discard(entry)
        head_server = message.head % network.size
        replacement = network.send(
            head_server,
            self.key,
            MigrateRequest(entry, message.head, hole_position),
        )
        if is_undelivered(replacement) or replacement is None:
            return True
        store.add(replacement)
        self._set_position(server, replacement.entry_id, hole_position)
        return True

    def _handle_migrate(
        self, server: Server, message: MigrateRequest, network: Network
    ) -> Optional[Entry]:
        """Head server: hand out the replacement ``R[v]``; track ``M[v]``.

        The replacement is resolved lazily on the first migrate request
        (rather than when the broadcast arrives) so the protocol is
        insensitive to the order servers process the delete broadcast.
        If the deleted entry *is* the head entry, there is no hole to
        plug and the replacement is None.
        """
        migrations: Dict[str, Dict[str, Any]] = server.state(self.key).setdefault(
            "migrations", {}
        )
        record = migrations.get(message.entry.entry_id)
        if record is None:
            candidate = self._entry_at(server, message.head)
            if candidate is not None and candidate.entry_id == message.entry.entry_id:
                candidate = None
            record = {"count": 0, "replacement": candidate}
            migrations[message.entry.entry_id] = record
        record["count"] += 1
        replacement = record["replacement"]
        if record["count"] >= self.strategy.y:
            # Every hole is plugged: retire the replacement's old
            # copies (servers head .. head+y-1), then forget the
            # migration record.
            if replacement is not None:
                for round_index in range(self.strategy.y):
                    network.send(
                        (message.head + round_index) % network.size,
                        self.key,
                        RemoveReplacement(replacement, message.head),
                    )
            del migrations[message.entry.entry_id]
        return replacement

    def _handle_remove_replacement(
        self, server: Server, message: RemoveReplacement
    ) -> bool:
        """Old holder of the migrated entry: drop the stale copy.

        A server that already re-stored the entry into the hole keeps
        it — detectable because its recorded position is no longer the
        old head position.
        """
        if self._positions(server).get(message.entry.entry_id) != message.position:
            return False
        store = server.store(self.key)
        store.discard(message.entry)
        self._set_position(server, message.entry.entry_id, None)
        return True


class RoundRobinY(PlacementStrategy):
    """Deal each entry to ``y`` consecutive servers, round-robin.

    Parameters
    ----------
    cluster:
        The server cluster.
    y:
        Replication degree; each entry gets exactly ``y`` copies on
        consecutive servers.  Requires ``1 <= y <= n``.
    max_total_storage:
        Optional total-copy budget for static coverage experiments
        (Figure 6).  Budget-truncated placements violate the
        exactly-``y``-copies invariant the dynamic delete protocol
        relies on, so budgets and updates must not be mixed.

    >>> from repro.cluster import Cluster
    >>> from repro.core.entry import make_entries
    >>> strategy = RoundRobinY(Cluster(10, seed=7), y=2)
    >>> _ = strategy.place(make_entries(100))
    >>> strategy.storage_cost(), strategy.coverage()
    (200, 100)
    >>> strategy.partial_lookup(40).lookup_cost
    2
    """

    name = "round_robin"

    def __init__(
        self,
        cluster: Cluster,
        y: int,
        key: str = "k",
        max_total_storage: Optional[int] = None,
        counter_replicas: int = 1,
    ) -> None:
        self.y = self._require_positive(y, "y")
        if y > cluster.size:
            raise InvalidParameterError(
                f"y ({y}) cannot exceed the number of servers ({cluster.size})"
            )
        if max_total_storage is not None and max_total_storage < 0:
            raise InvalidParameterError("max_total_storage must be non-negative")
        if not 1 <= counter_replicas <= cluster.size:
            raise InvalidParameterError(
                f"counter_replicas must be in [1, {cluster.size}],"
                f" got {counter_replicas}"
            )
        self.max_total_storage = max_total_storage
        #: §5.4 footnote: "the centralized head and tail scheme can be
        #: generalized to one where several servers store copies to
        #: improve reliability".  Counters live on servers
        #: 0..counter_replicas-1; updates go to the first operational
        #: one and are mirrored to the rest.
        self.counter_replicas = counter_replicas
        super().__init__(cluster, key)

    @classmethod
    def from_budget(
        cls, cluster: Cluster, storage_budget: int, entry_count: int, key: str = "k"
    ) -> "RoundRobinY":
        """Size ``y`` from a storage budget: ``y = budget / h`` (Table 1).

        When the budget cannot afford one copy of everything
        (``budget < h``), ``y`` is 1 and the budget truncates placement
        to a subset, per the paper's Figure 6 convention.
        """
        y = max(1, min(cluster.size, storage_budget // max(1, entry_count)))
        return cls(cluster, y=y, key=key, max_total_storage=storage_budget)

    def _build_logic(self) -> StrategyLogic:
        return _RoundRobinLogic(self)

    def params(self) -> Dict[str, Any]:
        params: Dict[str, Any] = {"y": self.y}
        if self.max_total_storage is not None:
            params["max_total_storage"] = self.max_total_storage
        if self.counter_replicas != 1:
            params["counter_replicas"] = self.counter_replicas
        return params

    # -- counter observability (for tests and debugging) ------------------------

    @property
    def head(self) -> int:
        return (
            self.cluster.server(self._alive_counter_host())
            .state(self.key)
            .get("head", 0)
        )

    @property
    def tail(self) -> int:
        return (
            self.cluster.server(self._alive_counter_host())
            .state(self.key)
            .get("tail", 0)
        )

    # -- operations --------------------------------------------------------------

    def _alive_counter_host(self) -> int:
        """The first operational counter replica (fail over in order).

        Raises
        ------
        NoOperationalServerError
            When every counter replica is down — updates cannot be
            sequenced, exactly the single-point-of-failure the §5.4
            footnote's replication is there to mitigate.
        """
        for server_id in range(self.counter_replicas):
            if self.cluster.server(server_id).alive:
                return server_id
        raise NoOperationalServerError(
            f"all {self.counter_replicas} counter replica(s) are failed"
        )

    def _do_place(self, entries: Tuple[Entry, ...]) -> None:
        initial = self.cluster.random_alive_server_id()
        self.cluster.network.send(initial, self.key, PlaceRequest(entries))

    def _do_add(self, entry: Entry) -> None:
        # Adds go to the counter host (the paper's "server 1"), which
        # alone knows the tail position.
        self.cluster.network.send(
            self._alive_counter_host(), self.key, AddRequest(entry)
        )

    def _do_delete(self, entry: Entry) -> None:
        self.cluster.network.send(
            self._alive_counter_host(), self.key, DeleteRequest(entry)
        )

    def partial_lookup(self, target: int) -> LookupResult:
        # Random first server s, then the deterministic s+y, s+2y, ...
        # walk: consecutive contacts share no entries, so each new
        # server contributes ~h/n fresh entries.  Failed servers are
        # skipped and replaced by random untried ones.
        return self.client.lookup(self.key, target, order=Stride(self.y))

    def lookup_profile(self) -> LookupProfile:
        return LookupProfile(order=Stride(self.y))
