"""The sans-IO server-side request core.

:class:`ServerProtocol` is the transport-agnostic half of a lookup
server: it owns idempotent delivery dedupe (the at-least-once
transport may deliver the same logical message twice) and dispatches
each received message — lookups, the add/delete/place update
choreography, anti-entropy verify probes — to the per-key logic the
active placement strategy installed.  It performs no I/O and keeps no
transport state; both the simulated :class:`~repro.cluster.network.Network`
and the asyncio socket service (:mod:`repro.net.service`) drive the
same instances.

Peer messaging: several schemes answer an update by messaging *other*
servers (Round-Robin's delete choreography, RandomServer's broadcasts).
The logic layer reaches peers through the ``peers`` argument — the
transport the driver is pumping messages through — so the protocol
core stays ignorant of how those messages move.  In-process drivers
pass the simulated network; the socket service hosts its cluster
in-process and passes the same, so server-to-server traffic never
re-enters the wire codec.

The one message every scheme treats identically — the per-server
lookup answer — lives here as :func:`answer_lookup`, the paper's
"return t randomly selected entries stored on the server, or all the
entries if the total is less than t".
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, List

from repro.protocol.effects import Effect, Reply
from repro.protocol.events import MessageReceived

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.messages import Message
    from repro.cluster.server import Server
    from repro.core.storage import MemoryBackend
    from repro.core.entry import Entry


def answer_lookup(
    store: "MemoryBackend", target: int, rng: random.Random
) -> List["Entry"]:
    """The per-server lookup answer shared by every scheme.

    ``target <= 0`` means "everything", used by traditional full
    lookups and coverage probes.  Randomness is injected so seeded
    replies replay identically under any driver.
    """
    return store.sample(target, rng)


class ServerProtocol:
    """Sans-IO message handling for one server.

    The protocol wraps a :class:`~repro.cluster.server.Server` (the
    store/state owner) and is the single dispatch point for received
    messages.  Transport concerns — liveness suppression, loss, §6.4
    message accounting — stay with the driver; by the time a message
    reaches :meth:`on_message` it *was* delivered.
    """

    #: How many (delivery id → reply) records the dedupe cache keeps.
    #: Duplicated deliveries arrive immediately after the original in
    #: the synchronous transport, so a small window is ample; the
    #: bound exists so long chaos runs cannot grow memory unboundedly.
    DEDUP_WINDOW = 1024

    __slots__ = ("_server", "_seen_deliveries")

    def __init__(self, server: "Server") -> None:
        self._server = server
        self._seen_deliveries: "OrderedDict[int, Any]" = OrderedDict()

    @property
    def server(self) -> "Server":
        return self._server

    # -- event/effect surface ------------------------------------------------

    def on_message(self, event: MessageReceived, peers: Any) -> List[Effect]:
        """Consume one delivery event; emit the reply effect."""
        if event.delivery_id is None:
            return [Reply(self.dispatch(event.key, event.message, peers))]
        return [
            Reply(
                self.dispatch_dedup(
                    event.key, event.message, peers, event.delivery_id
                )
            )
        ]

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, key: str, message: "Message", peers: Any) -> Any:
        """Route a delivered message to the installed per-key logic."""
        logic = self._server.logic_for(key)
        if logic is None:
            raise RuntimeError(
                f"server {self._server.server_id} has no logic installed "
                f"for key {key!r}"
            )
        return logic.handle(self._server, message, peers)

    def dispatch_dedup(
        self, key: str, message: "Message", peers: Any, delivery_id: int
    ) -> Any:
        """Idempotent dispatch: process each delivery id exactly once.

        The at-least-once transport (a fault plan with duplication)
        may deliver the same logical message twice; the first delivery
        runs the handler and caches its reply, the second returns the
        cached reply without re-running it.  This is what makes every
        update handler idempotent under duplicated delivery without
        each strategy having to reason about redelivery.
        """
        if delivery_id in self._seen_deliveries:
            return self._seen_deliveries[delivery_id]
        reply = self.dispatch(key, message, peers)
        self._seen_deliveries[delivery_id] = reply
        while len(self._seen_deliveries) > self.DEDUP_WINDOW:
            self._seen_deliveries.popitem(last=False)
        return reply

    def forget_deliveries(self) -> None:
        """Drop the dedupe cache (server wiped / freshly provisioned)."""
        self._seen_deliveries.clear()
