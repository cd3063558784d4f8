"""RandomServer-x: an independent random ``x``-subset per server (§3.3, §5.3).

Like Fixed-x, each server stores at most ``x`` entries, but each picks
its own uniformly random subset, so different servers return different
answers — much better fairness (Figure 9) and an expected coverage of
``h·(1 − (1 − x/h)^n)`` instead of exactly ``x`` — at the cost of
sometimes needing several servers per lookup.

Dynamically, every update must be broadcast (any server might be
affected), and each server maintains its subset's uniformity under
adds with Vitter's reservoir-sampling rule [8]: on the arrival of the
``h``-th entry, keep it with probability ``x/h``, evicting a random
incumbent.  Deletes use the same cushion scheme as Fixed-x (no
replacement is fetched); the paper shows fairness decays toward
Fixed-x's under sustained churn either way (Figure 13).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError
from repro.core.result import LookupResult
from repro.cluster.cluster import Cluster
from repro.cluster.messages import (
    AddRequest,
    DeleteRequest,
    FetchReplacement,
    Message,
    PlaceRequest,
    RemoveMessage,
    StoreMessage,
    StoreSetMessage,
)
from repro.cluster import is_undelivered
from repro.cluster.network import Network
from repro.cluster.server import Server
from repro.strategies.base import LookupProfile, PlacementStrategy, StrategyLogic


class _RandomServerLogic(StrategyLogic):
    """Server behaviour for RandomServer-x.

    Each server tracks its own estimate of ``h`` (the system-wide
    entry count) in its per-key state, written through
    :meth:`Server.set_state <repro.cluster.server.Server.set_state>`;
    the estimate stays exact because every add and delete is
    broadcast to every server.
    """

    def handle_message(self, server: Server, message: Message, network: Network) -> Any:
        store = server.store(self.key)
        state = server.state(self.key)
        x = self.strategy.x
        if isinstance(message, PlaceRequest):
            network.broadcast(self.key, StoreSetMessage(message.entries))
            return True
        if isinstance(message, AddRequest):
            network.broadcast(self.key, StoreMessage(message.entry))
            return True
        if isinstance(message, DeleteRequest):
            network.broadcast(self.key, RemoveMessage(message.entry))
            return True
        if isinstance(message, StoreSetMessage):
            # Independently select a uniformly random x-subset of the
            # placed entries (all of them if there are fewer than x).
            server.set_state(self.key, "h", len(message.entries))
            store.clear()
            if len(message.entries) <= x:
                chosen = list(message.entries)
            else:
                chosen = self.rng.sample(list(message.entries), x)
            for entry in chosen:
                store.add(entry)
            return True
        if isinstance(message, StoreMessage):
            return self._reservoir_add(server, store, message.entry, x)
        if isinstance(message, RemoveMessage):
            server.set_state(self.key, "h", max(0, state.get("h", 0) - 1))
            removed = store.discard(message.entry)
            if removed and self.strategy.delete_mode == "replace":
                self._fetch_replacement(server, message.entry, network)
            return removed
        if isinstance(message, FetchReplacement):
            excluded = set(message.exclude_ids)
            candidates = [e for e in store if e.entry_id not in excluded]
            if not candidates:
                return None
            return self.rng.choice(candidates)
        raise TypeError(f"RandomServer-x cannot handle {type(message).__name__}")

    def _fetch_replacement(
        self, server: Server, deleted: Entry, network: Network
    ) -> bool:
        """§5.3's active-replacement alternative to the cushion scheme.

        The deleting server refills its subset by asking peers, in
        random order, for a random entry it does not already hold.
        Costly (extra point-to-point round trips per delete) and, as
        the paper notes, no better for fairness — implemented so the
        tradeoff is measurable (see the cushion ablation bench).
        """
        store = server.store(self.key)
        # Exclude the deleted entry too: a peer later in the delete
        # broadcast's delivery order still holds it and must not hand
        # it back as its own "replacement".
        exclude = tuple(entry.entry_id for entry in store) + (deleted.entry_id,)
        peers = [
            other.server_id
            for other in network.servers
            if other.server_id != server.server_id
        ]
        self.rng.shuffle(peers)
        for peer_id in peers:
            reply = network.send(peer_id, self.key, FetchReplacement(exclude))
            if is_undelivered(reply) or reply is None:
                continue
            store.add(reply)
            return True
        return False

    def _reservoir_add(self, server: Server, store, entry: Entry, x: int) -> bool:
        """Vitter's reservoir step: keep the h-th arrival w.p. x/h."""
        h = server.state(self.key).get("h", 0) + 1
        server.set_state(self.key, "h", h)
        if entry in store:
            return False
        if len(store) < x:
            store.add(entry)
            return True
        if self.rng.random() < x / h:
            store.pop_random(self.rng)
            store.add(entry)
            return True
        return False


class RandomServerX(PlacementStrategy):
    """Each server keeps its own uniformly random ``x``-entry subset.

    Parameters
    ----------
    cluster:
        The server cluster.
    x:
        Per-server subset size.  Unlike Fixed-x, ``x`` need not bound
        the target answer size: a client wanting more than ``x``
        entries merges answers from several servers.

    >>> from repro.cluster import Cluster
    >>> from repro.core.entry import make_entries
    >>> strategy = RandomServerX(Cluster(10, seed=7), x=20)
    >>> _ = strategy.place(make_entries(100))
    >>> strategy.storage_cost()
    200
    >>> 60 <= strategy.coverage() <= 100   # E[coverage] ≈ 89.3
    True
    """

    name = "random_server"

    #: Valid delete modes: the paper's default cushion scheme, and the
    #: §5.3 active-replacement alternative.
    DELETE_MODES = ("cushion", "replace")

    def __init__(
        self,
        cluster: Cluster,
        x: int,
        key: str = "k",
        delete_mode: str = "cushion",
    ) -> None:
        self.x = self._require_positive(x, "x")
        if delete_mode not in self.DELETE_MODES:
            raise InvalidParameterError(
                f"delete_mode must be one of {self.DELETE_MODES}, got {delete_mode!r}"
            )
        self.delete_mode = delete_mode
        super().__init__(cluster, key)

    @classmethod
    def from_budget(
        cls, cluster: Cluster, storage_budget: int, key: str = "k"
    ) -> "RandomServerX":
        """Size ``x`` from a total storage budget: ``x = budget / n``."""
        return cls(cluster, x=max(1, storage_budget // cluster.size), key=key)

    def _build_logic(self) -> StrategyLogic:
        return _RandomServerLogic(self)

    def params(self) -> Dict[str, Any]:
        params: Dict[str, Any] = {"x": self.x}
        if self.delete_mode != "cushion":
            params["delete_mode"] = self.delete_mode
        return params

    def _do_place(self, entries: Tuple[Entry, ...]) -> None:
        initial = self.cluster.random_alive_server_id()
        self.cluster.network.send(initial, self.key, PlaceRequest(entries))

    def _do_add(self, entry: Entry) -> None:
        initial = self.cluster.random_alive_server_id()
        self.cluster.network.send(initial, self.key, AddRequest(entry))

    def _do_delete(self, entry: Entry) -> None:
        initial = self.cluster.random_alive_server_id()
        self.cluster.network.send(initial, self.key, DeleteRequest(entry))

    def partial_lookup(self, target: int) -> LookupResult:
        # Contact servers in random order, merging distinct entries,
        # until the target is met or every server has been asked.
        return self.client.lookup(self.key, target)

    def lookup_profile(self) -> LookupProfile:
        return LookupProfile(order="random")
