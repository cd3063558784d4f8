"""A simulated lookup server: local entry store plus strategy logic.

A :class:`Server` is deliberately thin.  It owns, per key, an ordered
local entry store and an opaque per-strategy state dict; everything
that happens when a message *arrives* — delivery dedupe and dispatch
to the :class:`ServerLogic` the active placement strategy installed
for that key — lives in the server's sans-IO
:class:`~repro.protocol.server.ServerProtocol` core, which this class
merely hosts.  All protocol decisions (broadcast or not, keep a random
subset, plug a round-robin hole, ...) live in the strategy's logic,
mirroring the paper's framing where the *scheme* defines what each
server does upon receiving a message.

:meth:`Server.receive` / :meth:`Server.receive_dedup` are thin drivers
over the protocol core, kept so the simulated transport (and tests)
address the server directly; the asyncio socket service drives the
same :class:`~repro.protocol.server.ServerProtocol` instances instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.core.interning import EntryInterner
from repro.core.storage import EntryStore, MemoryBackend, StorageBackend
from repro.cluster.messages import Message
from repro.protocol.server import ServerProtocol

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.network import Network
    from repro.obs.tracer import Tracer

#: Builds the storage backend for one ``(key, server_id, interner)``
#: triple.  ``None`` means the default: a plain :class:`MemoryBackend`.
StoreFactory = Callable[[str, int, EntryInterner], StorageBackend]


class ServerLogic(ABC):
    """Per-strategy message handler installed on every server.

    One logic instance may be shared across all servers (strategies
    keep per-server state in ``server.state``), so implementations must
    not store per-server mutable state on ``self``.
    """

    @abstractmethod
    def handle(self, server: "Server", message: Message, network: "Network") -> Any:
        """Process ``message`` at ``server``; return the reply, if any."""


class Server:
    """One simulated lookup server.

    Attributes
    ----------
    server_id:
        Zero-based identifier; the paper's "server 1" (the Round-Robin
        counter host) is ``server_id == 0`` here.
    alive:
        False while the server is failed; a failed server processes no
        messages (the network suppresses delivery).
    """

    #: Dedupe window size, re-exported from the protocol core (the
    #: dedupe cache itself lives in :class:`ServerProtocol`).
    DEDUP_WINDOW = ServerProtocol.DEDUP_WINDOW

    def __init__(
        self,
        server_id: int,
        interners: Optional[dict[str, EntryInterner]] = None,
        store_factory: Optional[StoreFactory] = None,
    ) -> None:
        self.server_id = server_id
        self.alive = True
        #: Per-key entry interners.  A cluster passes one shared dict
        #: to all its servers so every store for a key uses the same
        #: dense index space (the bitset kernel's requirement); a
        #: standalone server gets a private dict.
        self._interners: dict[str, EntryInterner] = (
            interners if interners is not None else {}
        )
        #: Builds a backend per key on first access; ``None`` keeps the
        #: historical default of an in-memory :class:`EntryStore`.
        self._store_factory: Optional[StoreFactory] = store_factory
        self._stores: dict[str, StorageBackend] = {}
        self._state: dict[str, dict[str, Any]] = {}
        self._logics: dict[str, ServerLogic] = {}
        #: The sans-IO request core: delivery dedupe + logic dispatch.
        #: Transports (simulated network, asyncio service) drive this.
        self.protocol = ServerProtocol(self)
        #: Optional structured tracer (see
        #: :meth:`repro.cluster.cluster.Cluster.install_tracer`); when
        #: set, lifecycle *transitions* emit ``server.fail`` /
        #: ``server.recover`` events.
        self.tracer: Optional["Tracer"] = None

    # -- store access ------------------------------------------------------

    def store(self, key: str) -> StorageBackend:
        """The local entry store for ``key``, created on first access."""
        if key not in self._stores:
            if key not in self._interners:
                self._interners[key] = EntryInterner()
            interner = self._interners[key]
            if self._store_factory is not None:
                self._stores[key] = self._store_factory(
                    key, self.server_id, interner
                )
            else:
                self._stores[key] = EntryStore(interner=interner)
        return self._stores[key]

    def state(self, key: str) -> dict[str, Any]:
        """Per-key strategy scratch state (counters, migration maps)."""
        if key not in self._state:
            self._state[key] = {}
        return self._state[key]

    def stored_entry_count(self, key: str) -> int:
        return len(self._stores.get(key, ()))

    def keys(self) -> list[str]:
        return list(self._stores)

    def has_store(self, key: str) -> bool:
        """Whether a store for ``key`` exists here (never creates one)."""
        return key in self._stores

    # -- logic installation and dispatch -----------------------------------

    def install_logic(self, key: str, logic: ServerLogic) -> None:
        """Bind ``logic`` as the handler for messages about ``key``."""
        self._logics[key] = logic

    def logic_for(self, key: str) -> Optional[ServerLogic]:
        return self._logics.get(key)

    def receive(self, key: str, message: Message, network: "Network") -> Any:
        """Thin driver: route a delivered message through the protocol core."""
        return self.protocol.dispatch(key, message, network)

    def receive_dedup(
        self, key: str, message: Message, network: "Network", delivery_id: int
    ) -> Any:
        """Thin driver: idempotent receive via the protocol core's dedupe.

        The at-least-once transport (a fault plan with duplication)
        may deliver the same logical message twice; see
        :meth:`~repro.protocol.server.ServerProtocol.dispatch_dedup`.
        """
        return self.protocol.dispatch_dedup(key, message, network, delivery_id)

    # -- lifecycle ----------------------------------------------------------

    def fail(self) -> None:
        """Mark the server failed; its state is retained for recovery."""
        if self.tracer is not None and self.alive:
            # Transition-guarded: re-failing a failed server (e.g. a
            # sweep's blanket fail_many) emits nothing.
            self.tracer.event("server.fail", server=self.server_id)
        self.alive = False

    def recover(self) -> None:
        """Bring a failed server back with its pre-failure state intact."""
        if self.tracer is not None and not self.alive:
            self.tracer.event("server.recover", server=self.server_id)
        self.alive = True

    def wipe(self) -> None:
        """Erase all stores and state, as if freshly provisioned."""
        self._stores.clear()
        self._state.clear()
        self.protocol.forget_deliveries()

    def __repr__(self) -> str:
        status = "up" if self.alive else "DOWN"
        sizes = {k: len(s) for k, s in self._stores.items()}
        return f"Server({self.server_id}, {status}, stores={sizes})"
