"""Abstract base for single-key placement strategies.

A :class:`PlacementStrategy` is the client-side face of one scheme: it
knows which server to send each request to and in what order to contact
servers during a lookup.  The server-side face is a
:class:`StrategyLogic` (a :class:`~repro.cluster.server.ServerLogic`)
that the strategy installs on every server at construction; all
protocol behaviour upon *receiving* a message lives there, mirroring
the paper's per-scheme protocol descriptions.

Message accounting: every public operation returns an
:class:`~repro.core.result.UpdateResult` /
:class:`~repro.core.result.LookupResult` whose ``messages`` field is
the number of processed server messages attributable to that one
operation, measured by differencing the network counters.  This is the
exact Section 6.4 cost model (client request = 1, broadcast = n,
point-to-point = 1).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.entry import Entry, coerce_entries
from repro.core.exceptions import InvalidParameterError
from repro.core.result import LookupResult, UpdateResult
from repro.cluster.client import Client, Order
from repro.cluster.cluster import Cluster
from repro.cluster.messages import LookupRequest, Message
from repro.cluster.network import Network
from repro.cluster.server import Server, ServerLogic
from repro.protocol.server import answer_lookup


@dataclass(frozen=True)
class LookupProfile:
    """A strategy's declaration of *how* it drives the client skeleton.

    Every paper strategy's ``partial_lookup`` is exactly
    ``client.lookup(key, target, order=..., max_servers=...)`` with no
    extra randomness or post-processing.  A strategy that can promise
    this declares it by returning a profile from
    :meth:`PlacementStrategy.lookup_profile`; consumers (the bitset
    Monte-Carlo kernel in :mod:`repro.cluster.kernel`, the exact
    estimators in :mod:`repro.analysis.exact`) can then reproduce or
    analyse the lookup without calling ``partial_lookup`` itself.
    Returning ``None`` (the base default) means "opaque — drive the
    real ``partial_lookup``", which is always safe.
    """

    order: Order = "random"
    max_servers: Optional[int] = None


class StrategyLogic(ServerLogic):
    """Server-side handler shared by all strategies.

    Handles the one message every scheme treats identically — the
    per-server lookup answer ("return t randomly selected entries
    stored on the server, or all of them if fewer") — and routes
    everything else to :meth:`handle_message` on the concrete logic.
    """

    def __init__(self, strategy: "PlacementStrategy") -> None:
        self.strategy = strategy

    @property
    def key(self) -> str:
        return self.strategy.key

    @property
    def rng(self) -> random.Random:
        return self.strategy.rng

    def handle(self, server: Server, message: Message, network: Network) -> Any:
        if isinstance(message, LookupRequest):
            return answer_lookup(server.store(self.key), message.target, self.rng)
        return self.handle_message(server, message, network)

    @abstractmethod
    def handle_message(self, server: Server, message: Message, network: Network) -> Any:
        """Handle a non-lookup message; return the reply, if any."""


class PlacementStrategy(ABC):
    """Base class for the paper's single-key placement strategies.

    Parameters
    ----------
    cluster:
        The server cluster to place entries on.
    key:
        The key whose entries this instance manages.  Distinct keys on
        the same cluster are fully independent (separate stores, state,
        and logic), which is how the multi-key directory composes
        strategies.
    """

    #: Registry name, e.g. ``"fixed"``; set by each concrete class.
    name: ClassVar[str] = ""

    def __init__(self, cluster: Cluster, key: str = "k") -> None:
        self.cluster = cluster
        self.key = key
        self.client = Client(cluster)
        #: Monotone counter bumped by every placement mutation
        #: (``place``/``add``/``delete``).  Consumers that memoize
        #: anything derived from the placement (e.g. the
        #: :class:`~repro.experiments.placement_cache.PlacementCache`)
        #: compare epochs to detect staleness.
        self.placement_epoch = 0
        logic = self._build_logic()
        for server in cluster.servers:
            server.install_logic(key, logic)

    # -- to be provided by concrete strategies --------------------------------

    @abstractmethod
    def _build_logic(self) -> StrategyLogic:
        """Create the server-side logic shared by all servers."""

    @abstractmethod
    def _do_place(self, entries: Tuple[Entry, ...]) -> None:
        """Issue the messages that realize ``place(entries)``."""

    @abstractmethod
    def _do_add(self, entry: Entry) -> None:
        """Issue the messages that realize ``add(entry)``."""

    @abstractmethod
    def _do_delete(self, entry: Entry) -> None:
        """Issue the messages that realize ``delete(entry)``."""

    @abstractmethod
    def partial_lookup(self, target: int) -> LookupResult:
        """Retrieve at least ``target`` distinct entries for this key.

        Never raises on shortfall; the result's ``success`` flag
        reports whether the target was met, because lookup failure is
        a measured event in the paper's evaluation (Figure 12).
        """

    # -- common conveniences ----------------------------------------------------

    @property
    def rng(self) -> random.Random:
        return self.cluster.rng

    @property
    def n(self) -> int:
        """Number of servers, the paper's ``n``."""
        return self.cluster.size

    def params(self) -> Dict[str, Any]:
        """The strategy's tunable parameters, for reports and repr."""
        return {}

    def place(self, entries: Iterable[Entry]) -> UpdateResult:
        """Batch-set this key's entries (Section 2 ``place`` semantics).

        Placing on a key that already holds entries first resets that
        key on every server; the reset is a simulation-level operation
        and is not charged any messages, since the paper only measures
        incremental update costs.
        """
        batch = tuple(coerce_entries(entries))
        for server in self.cluster.servers:
            server.store(self.key).clear()
            server.state(self.key).clear()
        self.placement_epoch += 1
        return self._measured("place", lambda: self._do_place(batch))

    def add(self, entry: Entry) -> UpdateResult:
        """Incrementally add one entry."""
        self.placement_epoch += 1
        return self._measured("add", lambda: self._do_add(entry))

    def delete(self, entry: Entry) -> UpdateResult:
        """Incrementally delete one entry."""
        self.placement_epoch += 1
        return self._measured("delete", lambda: self._do_delete(entry))

    def lookup_profile(self) -> Optional["LookupProfile"]:
        """How ``partial_lookup`` drives the client, if declarable.

        See :class:`LookupProfile`.  The base returns ``None`` (opaque
        lookup); every paper strategy overrides this with its actual
        order/cap so the fast Monte-Carlo kernel and the exact
        estimators apply.
        """
        return None

    def lookup_all(self) -> Set[Entry]:
        """Traditional full lookup: every retrievable entry.

        Contract: this is defined as ``partial_lookup(0)`` — target 0
        is the explicit "fetch everything" request.  The client
        skeleton then contacts *every* server in the strategy's
        contact order (no early stop, since no target can be met), and
        each per-server ``LookupRequest(0)`` answer is the server's
        entire store (``MemoryBackend.sample`` treats ``count <= 0`` as
        "all", matching the paper's traditional-lookup semantics).
        Consequently the result equals the coverage set restricted to
        servers the strategy's order reaches — for every paper
        strategy except Fixed-x and full replication (whose
        ``max_servers=1`` cap means one server's store, which *is*
        their coverage set when stores are equal), that is exactly
        ``cluster.coverage_set(key)``.  Failed servers are skipped, so
        entries stored only on failed servers are not returned.
        """
        return set(self.partial_lookup(0).entries)

    # -- placement observations ---------------------------------------------------

    def storage_cost(self) -> int:
        """Total stored entries across servers (Table 1's measured cost)."""
        return self.cluster.storage_cost(self.key)

    def coverage(self) -> int:
        """Maximum coverage: distinct entries on operational servers."""
        return self.cluster.coverage(self.key)

    def placement(self) -> Dict[int, Set[Entry]]:
        """Server id → set of stored entries, the metric inputs."""
        return self.cluster.placement(self.key)

    # -- internals -------------------------------------------------------------------

    def _measured(self, operation: str, action) -> UpdateResult:
        """Run ``action`` and report its message cost as an UpdateResult."""
        stats = self.cluster.network.stats
        before_messages = stats.update_messages
        before_broadcasts = stats.broadcasts
        action()
        return UpdateResult(
            operation=operation,
            messages=stats.update_messages - before_messages,
            broadcast=stats.broadcasts > before_broadcasts,
        )

    @staticmethod
    def _require_positive(value: int, name: str) -> int:
        if value < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {value}")
        return value

    def __repr__(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in self.params().items())
        return f"{type(self).__name__}({params}) on {self.cluster!r}"
