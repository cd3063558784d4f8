"""Key → shard routing over the membership view, with failover.

A sharded deployment runs N ``repro serve --shard i/N`` processes.
Each logical key (in the hosted services, the scheme keys) has a
*home group* of ``replicas`` shards chosen by the multi-probe
consistent hashing in :mod:`repro.net.sharding` — the first home
shard is the key's **primary** and holds the full placement, the
rest are **backups** holding a deterministic partial replica
(:func:`~repro.net.sharding.partial_replica`).  Router and shards
compute the identical mapping from the shard names alone; no routing
table crosses the wire.

:class:`ShardRouter` is a routing table, not a driver: per lookup it
plans one :class:`~repro.protocol.lookup.LookupSession` whose contact
order spans the home group's servers, primary first, and hands it to
:func:`~repro.net.client.pump` (``lookup``) or
:func:`~repro.net.client.pump_many` (``lookup_many``: one ``batch``
frame per shard per round) with a route from contact index to shard
client and server id.  Shard death therefore *degrades* lookups
instead of erroring them: contacts on a dead shard surface as
dropped/failed contacts (the PR-1 vocabulary), the walk continues
onto the backups' servers, and a short merged answer comes back
explicitly labelled ``degraded=True`` — never wrong, never hung (every
contact is timeout-bounded).  The router consumes the membership view
(:mod:`repro.protocol.membership`) to skip shards known dead or
still in rejoin quarantine, so steady-state outage traffic goes
straight to the backups without burning timeouts on the corpse.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.cluster.client import RetryPolicy
from repro.core.exceptions import InvalidParameterError
from repro.core.result import LookupResult as CoreLookupResult
from repro.net.client import (
    AsyncLookupClient,
    Route,
    ServiceError,
    ServiceInfo,
    contact_order,
    pump,
    pump_many,
)
from repro.net.codec import CODEC_JSON
from repro.net.results import LookupReport, LookupResult
from repro.net.sharding import ShardMap, partial_replica
from repro.protocol.effects import SendRequest
from repro.protocol.lookup import LookupSession
from repro.protocol.membership import ROUTABLE_STATES


class ShardRouter:
    """A lookup client for a sharded deployment.

    Parameters
    ----------
    shards:
        ``name -> (host, port)`` for every shard, the same universe
        the shards themselves were started with.
    replicas:
        Home-group size per key (primary + backups); must not exceed
        the shard count.
    probes:
        Multi-probe count, forwarded to :class:`ShardMap`.
    rng:
        Injected randomness for contact orders and session draws.
    timeout:
        Per-contact reply timeout, as in :class:`AsyncLookupClient`.
    retry_policy:
        Optional retry policy applied to every lookup.
    view_ttl:
        How long a fetched membership view is trusted before being
        refreshed, in ``clock`` units.
    clock:
        Injected monotonic clock (tests pass a fake).
    """

    def __init__(
        self,
        shards: Mapping[str, Tuple[str, int]],
        *,
        replicas: int = 2,
        probes: int = 21,
        rng: Optional[random.Random] = None,
        timeout: float = 5.0,
        retry_policy: Optional[RetryPolicy] = None,
        view_ttl: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        codec: str = "json",
    ) -> None:
        if not shards:
            raise InvalidParameterError("ShardRouter needs at least one shard")
        if replicas > len(shards):
            raise InvalidParameterError(
                f"replicas ({replicas}) cannot exceed shard count ({len(shards)})"
            )
        self.map = ShardMap(list(shards), probes=probes)
        self.replicas = replicas
        self.retry_policy = retry_policy
        self.codec = codec
        self._rng = rng if rng is not None else random.Random()
        self._clock = clock
        self._view_ttl = view_ttl
        self._clients: Dict[str, AsyncLookupClient] = {
            name: AsyncLookupClient(host, port, timeout=timeout, codec=codec)
            for name, (host, port) in sorted(shards.items())
        }
        self._view: Dict[str, str] = {}
        self._view_at: Optional[float] = None
        self._fleet_info: Optional[ServiceInfo] = None

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()

    # -- membership ----------------------------------------------------------

    async def membership_view(self, refresh: bool = False) -> Dict[str, str]:
        """``shard -> state`` as reported by the first answering shard.

        A single shard's view suffices: every shard runs the same
        failure detector over the same peer set, and the answering
        shard vouches for itself by answering.  An empty dict (no
        shard reachable) makes the router try home shards blindly —
        contacts then fail fast and the lookup degrades rather than
        erroring.
        """
        now = self._clock()
        if (
            not refresh
            and self._view_at is not None
            and now - self._view_at < self._view_ttl
        ):
            return self._view
        for name, client in self._clients.items():
            try:
                value = await client.membership()
            except (ConnectionError, OSError, ServiceError):
                continue
            view = {
                str(peer): str(state)
                for peer, state, _incarnation in value.get("view", [])
            }
            view[name] = "alive"  # it answered
            self._view = view
            self._view_at = now
            return view
        self._view = {}
        self._view_at = now
        return self._view

    # -- lookup routing ------------------------------------------------------

    async def _info(self) -> ServiceInfo:
        """Topology from any reachable shard (the fleet is homogeneous)."""
        if self._fleet_info is not None:
            return self._fleet_info
        last_error: Optional[Exception] = None
        for client in self._clients.values():
            try:
                self._fleet_info = await client.info()
                return self._fleet_info
            except (ConnectionError, OSError, ServiceError) as exc:
                last_error = exc
        raise ServiceError(f"no shard reachable for info: {last_error}")

    async def _plan(
        self, key: str, target: int
    ) -> Tuple[LookupSession, Route, Callable[[CoreLookupResult], LookupResult]]:
        """One lookup as ``(session, route, finish)``, nothing sent yet.

        Home group → membership filter → one contact order per
        admitted shard → a session over the indices of the resulting
        ``(shard, server)`` table.  ``route`` resolves an index to the
        shard's client and wire server id; ``finish`` attributes the
        session's core result back to shards.  All of the lookup's
        contact-order draws happen here, in call order.
        """
        info = await self._info()
        spec = info.schemes.get(key)
        if spec is None:
            raise ServiceError(
                f"fleet does not host key {key!r} "
                f"(hosts: {', '.join(sorted(info.schemes))})"
            )
        home = tuple(self.map.home(key, self.replicas))
        view = await self.membership_view()
        routed = tuple(
            shard for shard in home if view.get(shard, "alive") in ROUTABLE_STATES
        )
        if not routed:
            # The view condemned the whole home group; it may be
            # stale, and a wrong "dead" must cost timeouts, not data.
            routed = home
        table = [
            (shard, server)
            for shard in routed
            for server in contact_order(spec.order, info.servers, self._rng)
        ]
        session = LookupSession(
            key,
            target,
            list(range(len(table))),
            max_servers=spec.max_servers,
            retry_policy=self.retry_policy,
            rng=self._rng,
        )

        def route(effect: SendRequest) -> Tuple[AsyncLookupClient, int]:
            shard, server = table[effect.server_id]
            return self._clients[shard], server

        def finish(core: CoreLookupResult) -> LookupResult:
            contacts = tuple(table[i] for i in core.servers_contacted)
            # The codec the first answering contact's connection speaks.
            codec = self._clients[contacts[0][0]].wire_codec if contacts else CODEC_JSON
            return LookupResult.from_core(
                key, core, codec=codec, home=home, routed=routed, contacts=contacts
            )

        return session, route, finish

    async def lookup(self, key: str, target: int) -> LookupResult:
        """One partial lookup for ``target`` entries under ``key``.

        Contacts the key's home shards in probe order, skipping shards
        the membership view rules out (dead or quarantined).  Never
        raises on shard death — the result degrades instead.
        """
        session, route, finish = await self._plan(key, target)
        return finish(await pump(session, route))

    async def lookup_many(self, requests: Sequence[Tuple[str, int]]) -> LookupReport:
        """Many ``(key, target)`` lookups, one batch frame per shard per round.

        Every lookup is planned up front, in request order (so a
        seeded batch replays the same walks), then all sessions
        advance together: a round's sends ride one ``batch`` frame per
        shard, the shards' frames in flight together, and the round
        ends with its slowest frame — at worst one timeout, after
        which a dead shard's sends count as dropped contacts and the
        walks move on to the backups.  Results come back in request
        order in a :class:`~repro.net.results.LookupReport`.
        """
        plans = [await self._plan(key, target) for key, target in requests]
        cores = await pump_many(
            [session for session, _, _ in plans], [route for _, route, _ in plans]
        )
        results = tuple(finish(core) for (_, _, finish), core in zip(plans, cores))
        return LookupReport(results=results)

    async def verify(self, key: str) -> Dict[str, Any]:
        """The ``verify`` report from the key's first reachable home shard."""
        last_error: Optional[Exception] = None
        for shard in self.map.home(key, self.replicas):
            try:
                return await self._clients[shard].verify(key)
            except (ConnectionError, OSError, ServiceError) as exc:
                last_error = exc
        raise ServiceError(f"no home shard reachable for verify({key!r}): {last_error}")


__all__ = [
    "ShardMap",
    "ShardRouter",
    "partial_replica",
]
