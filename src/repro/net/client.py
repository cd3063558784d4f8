"""The asyncio lookup client: real timeouts driving the sans-IO session.

:class:`AsyncLookupClient` is the network twin of the simulated
:class:`~repro.cluster.client.Client`.  Both pump the same
:class:`~repro.protocol.lookup.LookupSession`; the differences are
purely in how effects are enacted:

- ``SendRequest`` becomes a framed envelope over the socket, awaited
  with a real timeout.  A timed-out request is reported to the session
  as ``ContactFailed(dropped=True)`` — from the protocol's viewpoint a
  timeout *is* a lost message, worth retrying — while an
  ``"unavailable"`` error reply (the addressed server is failed) is
  ``ContactFailed(dropped=False)``, matching the simulated transport's
  :data:`~repro.cluster.network.DROPPED` / UNDELIVERED distinction.
- ``Sleep`` becomes a real ``asyncio.sleep``, so a
  :class:`~repro.cluster.client.RetryPolicy`'s backoff schedule is
  enacted in wall-clock time instead of merely accounted.

That enactment lives in two module-level drivers, which the
:class:`~repro.net.router.ShardRouter` rides too: :func:`pump` runs
one session over plain ``send`` envelopes, :func:`pump_many` runs many
a round at a time, every live session's next send riding its client's
``batch`` frame.  Both take a *route* — ``SendRequest`` → ``(client,
wire server id)`` — so a client routes to itself and the router
through its per-lookup ``(shard, server)`` table.

A client is one connection, re-established after a timeout: the stale
reply may still arrive on the old stream, and reconnecting is the
simplest way to keep request/reply framing in lockstep (the
single-request wire path carries no request ids — one in-flight
request per connection; only ``batch`` envelopes correlate by id).

Typed surface: :meth:`~AsyncLookupClient.lookup` and
:meth:`~AsyncLookupClient.lookup_many` return the frozen
:class:`repro.net.results.LookupResult` / ``LookupReport``;
``ping``/``info``/``verify``/``capabilities``/``membership``/``batch``
cover the control ops.  Raw envelopes are a private escape hatch
(:meth:`~AsyncLookupClient._request`).

Codec: ``codec="json"`` (the default) speaks exactly the legacy wire
— no hello, byte-identical frames.  ``codec="binary"`` negotiates
per connection via the ``hello`` op, falling back to JSON
(and, for batches, to sequential sends) when the peer predates the
negotiation.

Determinism: the session's RNG is supplied by the caller, so a seeded
run contacts servers in a reproducible order even over real sockets;
only timing (and therefore timeout-induced retries) is environmental.
``lookup_many`` draws every session's contact order up front, in
request order, so a seeded batch is as reproducible as a seeded loop
of single lookups.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.client import RetryPolicy
from repro.net.codec import (
    CODEC_JSON,
    SUPPORTED_CODECS,
    decode_value,
    encode_message,
    pack_send_envelope,
    read_frame,
    write_frame,
)
from repro.cluster.messages import Message
from repro.core.result import LookupResult as CoreLookupResult
from repro.net.results import LookupReport, LookupResult
from repro.protocol.effects import SendRequest, Sleep
from repro.protocol.events import SLEPT, ContactFailed, Event, ReplyReceived
from repro.protocol.lookup import LookupSession, random_order, stride_order


class ServiceError(ConnectionError):
    """The service rejected a request or broke the envelope protocol."""


@dataclass(frozen=True)
class SchemeInfo:
    """One hosted scheme, as reported by the ``info`` op."""

    name: str
    params: dict[str, Any]
    order: Any  # "random" | {"stride": y}
    max_servers: Optional[int]


@dataclass(frozen=True)
class ServiceInfo:
    """Topology summary from the ``info`` op."""

    servers: int
    entries: int
    seed: int
    schemes: dict[str, SchemeInfo]


# -- the session drivers ------------------------------------------------------

#: Where one ``SendRequest`` goes: the client whose connection carries
#: it and the server id to put on the wire.  The resulting event is
#: stamped with the session's own ``effect.server_id`` either way.
Route = Callable[[SendRequest], Tuple["AsyncLookupClient", int]]

#: One send riding a batch round:
#: ``(request id, session index, wire server id, effect)``.
_Ride = Tuple[int, int, int, SendRequest]


def contact_order(order: Any, servers: int, rng: random.Random) -> List[int]:
    """Materialize a scheme's declared contact order locally.

    Mirrors ``Client._resolve_order``: a stride draws its start
    first, then builds the walk, so seeded async and simulated
    clients agree on draw order.
    """
    if isinstance(order, dict) and "stride" in order:
        start = rng.randrange(servers)
        return stride_order(servers, start, order["stride"], rng)
    return random_order(servers, rng)


async def pump(session: LookupSession, route: Route) -> CoreLookupResult:
    """Drive one session to completion, one plain ``send`` per contact.

    No hello and no batch frame: on a JSON client this is exactly the
    legacy wire.  Never raises on shortfall — a short answer is the
    session's labelled degraded result.
    """
    effects = session.start()
    while not session.done:
        event: Optional[Event] = None
        for effect in effects:
            if isinstance(effect, SendRequest):
                client, server = route(effect)
                event = await client.contact_server(
                    server, effect.key, effect.request, event_server_id=effect.server_id
                )
            elif isinstance(effect, Sleep):
                await asyncio.sleep(effect.delay)
                event = SLEPT
        effects = session.on_event(event)
    return session.result


async def pump_many(
    sessions: Sequence[LookupSession], routes: Sequence[Route]
) -> List[CoreLookupResult]:
    """Drive many sessions to completion, pipelined per round.

    ``routes[i]`` routes ``sessions[i]``.  Every live session's next
    ``send`` rides its client's ``batch`` frame, the clients' frames
    of one round are in flight together, and replies are correlated
    back by request id — so a round costs one round trip per client
    regardless of how many lookups ride it, and a stalled or
    reordering peer cannot mismatch replies.  Results come back in
    session order.
    """
    # Per-session pending state: "send" effects waiting for this
    # round's batch, "sleep" delays waiting for the shared timer.
    sends: Dict[int, SendRequest] = {}
    sleeps: Dict[int, float] = {}
    next_id = 0

    def absorb(index: int, effects: Sequence[Any]) -> None:
        for effect in effects:
            if isinstance(effect, SendRequest):
                sends[index] = effect
            elif isinstance(effect, Sleep):
                sleeps[index] = effect.delay

    for index, session in enumerate(sessions):
        absorb(index, session.start())

    while sends or sleeps:
        if sends:
            chunks: Dict[AsyncLookupClient, List[_Ride]] = {}
            for index, effect in sends.items():
                client, server = routes[index](effect)
                chunks.setdefault(client, []).append((next_id, index, server, effect))
                next_id += 1
            sends.clear()
            rounds = await asyncio.gather(
                *(client._batch_round(chunk) for client, chunk in chunks.items())
            )
            for events in rounds:
                for index, event in events:
                    absorb(index, sessions[index].on_event(event))
        else:
            # Nothing on the wire: let the nearest backoff expire,
            # crediting the wait to every other sleeper.
            delay = min(sleeps.values())
            await asyncio.sleep(delay)
            due = [i for i, left in sleeps.items() if left <= delay]
            for index in sleeps:
                sleeps[index] -= delay
            for index in due:
                del sleeps[index]
                absorb(index, sessions[index].on_event(SLEPT))

    return [session.result for session in sessions]


def _dropped(rides: Iterable[_Ride]) -> List[Tuple[int, Event]]:
    return [
        (index, ContactFailed(effect.server_id, dropped=True))
        for _, index, _, effect in rides
    ]


class _Conn:
    """A client's connection: streams plus negotiated wire state.

    ``codec`` is what *we send* on this connection (the peer's replies
    are sniffed per frame regardless).  ``caps`` is the peer's hello
    answer — ``None`` until negotiation ran, ``{}`` for a legacy peer
    that rejected the hello.
    """

    __slots__ = ("reader", "writer", "codec", "caps", "lock")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.codec: str = CODEC_JSON
        self.caps: Optional[dict[str, Any]] = None
        self.lock = asyncio.Lock()


class AsyncLookupClient:
    """An async client for one :class:`~repro.net.service.LookupService`.

    Parameters
    ----------
    host, port:
        The service's listening address.
    rng:
        Injected randomness for contact orders and the session's
        draws; defaults to a fresh unseeded generator.
    timeout:
        Per-request reply timeout in seconds.  Timeouts surface as
        dropped contacts (retryable under a retry policy), not
        exceptions.
    retry_policy:
        Optional :class:`~repro.cluster.client.RetryPolicy` applied to
        every lookup; backoffs are real sleeps.
    codec:
        ``"json"`` (default: legacy wire, no negotiation) or
        ``"binary"`` (negotiate per connection, JSON fallback).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        rng: Optional[random.Random] = None,
        timeout: float = 5.0,
        retry_policy: Optional[RetryPolicy] = None,
        codec: str = "json",
    ) -> None:
        if codec not in ("json", "binary"):
            raise ValueError(f"codec must be json or binary: {codec!r}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.codec = codec
        self._rng = rng if rng is not None else random.Random()
        self._conn: Optional[_Conn] = None
        self._info: Optional[ServiceInfo] = None

    # -- connection management ----------------------------------------------

    @property
    def _writer(self) -> Optional[asyncio.StreamWriter]:
        return None if self._conn is None else self._conn.writer

    @property
    def wire_codec(self) -> str:
        """The codec this client's connection currently sends in."""
        return CODEC_JSON if self._conn is None else self._conn.codec

    async def connect(self) -> None:
        await self._connection()

    async def _connection(self) -> _Conn:
        if self._conn is None:
            reader, writer = await asyncio.open_connection(self.host, self.port)
            self._conn = _Conn(reader, writer)
        return self._conn

    async def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is None:
            return
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "AsyncLookupClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def _redial(self) -> None:
        """Drop the stream (a late reply on it would desync framing); dial afresh."""
        await self.close()
        try:
            await self._connection()
        except OSError:
            pass

    # -- raw envelope round-trips --------------------------------------------

    async def _request(self, envelope: dict[str, Any]) -> dict[str, Any]:
        """One envelope round-trip, no timeout.

        Raises :class:`ServiceError` if the connection drops before
        the reply arrives.  Used for the control ops; data-path sends
        go through the timeout-aware :meth:`contact_server`.
        """
        conn = await self._connection()
        if self.codec != "json" and conn.caps is None and envelope.get("op") != "hello":
            await self._negotiate(conn)
        return await self._request_on(conn, envelope)

    async def _request_on(self, conn: _Conn, envelope: dict[str, Any]) -> dict[str, Any]:
        try:
            async with conn.lock:
                await write_frame(conn.writer, envelope, codec=conn.codec)
                reply = await read_frame(conn.reader)
        except (ConnectionError, OSError):
            # A cached connection may be stale (peer restarted); drop
            # it so the next request dials fresh instead of failing
            # against the same dead stream forever.
            await self.close()
            raise
        if reply is None:
            await self.close()
            raise ServiceError("service closed the connection mid-request")
        return reply

    async def _negotiate(self, conn: _Conn) -> dict[str, Any]:
        """Run the hello exchange on ``conn`` (idempotent); the peer's caps.

        A peer that answers ``bad-request`` predates negotiation:
        record empty capabilities and keep speaking JSON — the
        mandatory fallback — so old servers keep working unchanged.
        """
        if conn.caps is not None:
            return conn.caps
        offered = list(SUPPORTED_CODECS) if self.codec == "binary" else ["json"]
        reply = await self._request_on(
            conn, {"op": "hello", "codecs": offered, "batch": True}
        )
        if reply.get("ok"):
            value = reply.get("value") or {}
            conn.caps = dict(value)
            chosen = value.get("codec")
            if chosen in offered and chosen in SUPPORTED_CODECS:
                conn.codec = chosen
        elif reply.get("error") == "bad-request":
            conn.caps = {}
        else:
            raise ServiceError(
                f"hello failed: {reply.get('error')}: {reply.get('detail')}"
            )
        return conn.caps

    # -- typed control ops ----------------------------------------------------

    async def ping(self) -> bool:
        reply = await self._request({"op": "ping"})
        return bool(reply.get("ok"))

    async def capabilities(self) -> dict[str, Any]:
        """The service's live capability block (codecs, cache, workers).

        Fetched fresh on every call — the ``cache`` sub-dict carries
        live hit/miss counters and the ``workers`` sub-dict identifies
        which fleet process answered this connection, both of which go
        stale the moment they are read.
        """
        reply = await self._request({"op": "info"})
        if not reply.get("ok"):
            raise ServiceError(f"info failed: {reply.get('detail')}")
        return dict(reply["value"].get("capabilities") or {})

    async def info(self, refresh: bool = False) -> ServiceInfo:
        """Fetch (and cache) the service topology."""
        if self._info is not None and not refresh:
            return self._info
        reply = await self._request({"op": "info"})
        if not reply.get("ok"):
            raise ServiceError(f"info failed: {reply.get('detail')}")
        value = reply["value"]
        schemes = {
            name: SchemeInfo(
                name=name,
                params=dict(spec["params"]),
                order=spec["profile"]["order"],
                max_servers=spec["profile"]["max_servers"],
            )
            for name, spec in value["schemes"].items()
        }
        self._info = ServiceInfo(
            servers=value["servers"],
            entries=value["entries"],
            seed=value["seed"],
            schemes=schemes,
        )
        return self._info

    async def verify(self, scheme: str) -> dict[str, Any]:
        """The service's coverage/storage invariant report for ``scheme``."""
        reply = await self._request({"op": "verify", "key": scheme})
        if not reply.get("ok"):
            raise ServiceError(f"verify failed: {reply.get('detail')}")
        return reply["value"]

    async def membership(self) -> dict[str, Any]:
        """The peer's membership view (``membership`` op)."""
        reply = await self._request({"op": "membership"})
        if not reply.get("ok"):
            raise ServiceError(f"membership failed: {reply.get('detail')}")
        return reply["value"]

    async def batch(
        self, envelopes: Sequence[dict[str, Any]]
    ) -> List[dict[str, Any]]:
        """Submit many envelopes in one ``batch`` frame; replies in order.

        The typed face of pipelining for callers composing their own
        envelopes.  Requires a batch-capable peer (negotiated via
        ``hello``); raises :class:`ServiceError` otherwise.
        """
        conn = await self._connection()
        if not (await self._negotiate(conn)).get("batch"):
            raise ServiceError("peer does not support batch envelopes")
        reply = await self._request_on(
            conn, {"op": "batch", "requests": list(envelopes)}
        )
        if not reply.get("ok"):
            raise ServiceError(
                f"batch failed: {reply.get('error')}: {reply.get('detail')}"
            )
        return reply["value"]

    # -- lookups --------------------------------------------------------------

    async def _sessions(
        self, scheme: str, targets: Sequence[int]
    ) -> List[LookupSession]:
        """One session per target; every contact order drawn here, in order."""
        info = await self.info()
        spec = info.schemes.get(scheme)
        if spec is None:
            raise ServiceError(
                f"service does not host scheme {scheme!r} "
                f"(hosts: {', '.join(sorted(info.schemes))})"
            )
        return [
            LookupSession(
                scheme,
                target,
                contact_order(spec.order, info.servers, self._rng),
                max_servers=spec.max_servers,
                retry_policy=self.retry_policy,
                rng=self._rng,
            )
            for target in targets
        ]

    def _route(self, effect: SendRequest) -> Tuple["AsyncLookupClient", int]:
        return self, effect.server_id

    async def lookup(self, scheme: str, target: int) -> LookupResult:
        """One partial lookup for ``target`` entries under ``scheme``.

        Contacts real sockets but never raises on shortfall — like the
        simulated client, a short answer comes back as a labelled
        degraded :class:`~repro.net.results.LookupResult`.
        """
        (session,) = await self._sessions(scheme, (target,))
        core = await pump(session, self._route)
        return LookupResult.from_core(scheme, core, codec=self.wire_codec)

    async def lookup_many(self, scheme: str, targets: Sequence[int]) -> LookupReport:
        """Many partial lookups under ``scheme``, pipelined per round.

        One ``batch`` frame per round (see :func:`pump_many`); results
        come back in request order inside a
        :class:`~repro.net.results.LookupReport`.  Against a peer
        without batch support (pre-negotiation server) each round
        transparently degrades to sequential sends.
        """
        sessions = await self._sessions(scheme, targets)
        cores = await pump_many(sessions, [self._route] * len(sessions))
        codec = self.wire_codec
        return LookupReport(
            results=tuple(
                LookupResult.from_core(scheme, core, codec=codec) for core in cores
            )
        )

    async def contact_server(
        self,
        server: int,
        key: str,
        request: Any,
        *,
        event_server_id: Optional[int] = None,
    ) -> Event:
        """One timeout-bounded ``send`` to ``server``, as a session event.

        The public face of the data path and the one contact
        :func:`pump` makes: ``event_server_id`` stamps the returned
        event with the *session's* contact index when it differs from
        the wire-level server id (a router's sessions span shards).
        """
        sid = server if event_server_id is None else event_server_id
        envelope = {
            "op": "send",
            "server": server,
            "key": key,
            "message": encode_message(request),
        }
        try:
            async with asyncio.timeout(self.timeout):
                reply = await self._request(envelope)
        except (asyncio.TimeoutError, ConnectionError, OSError):
            await self._redial()
            return ContactFailed(sid, dropped=True)
        return self._reply_event(sid, reply)

    def _reply_event(
        self, sid: int, reply: dict[str, Any], *, decoded: bool = False
    ) -> Event:
        """Map a ``send`` reply envelope to a session event.

        ``decoded=True`` promises the reply came off a binary frame,
        whose unpacker already yields live entries/messages — the
        JSON-tag decode pass is skipped entirely.
        """
        if reply.get("ok"):
            value = reply["value"]
            if not decoded and not isinstance(value, Message):
                value = decode_value(value)
            return ReplyReceived(sid, value)
        error = reply.get("error")
        if error == "unavailable":
            return ContactFailed(sid, dropped=False)
        if error == "dropped":
            return ContactFailed(sid, dropped=True)
        raise ServiceError(f"lookup send failed: {error}: {reply.get('detail')}")

    async def _batch_round(self, chunk: List[_Ride]) -> List[Tuple[int, Event]]:
        """One round's sends on this connection, as ``batch`` frames.

        Returns ``(session_index, event)`` pairs.  Negotiates first: a
        peer without batch support gets the sends one by one, a chunk
        longer than the peer's ``max_batch`` is windowed.  A timeout
        or broken connection fails every ride-along send as dropped
        (the exact semantics one timed-out single request has) and
        redials.
        """
        try:
            async with asyncio.timeout(self.timeout):
                caps = await self._negotiate(await self._connection())
        except (asyncio.TimeoutError, ConnectionError, OSError):
            await self._redial()
            return _dropped(chunk)
        events: List[Tuple[int, Event]] = []
        if not caps.get("batch"):
            for _, index, server, effect in chunk:
                event = await self.contact_server(
                    server, effect.key, effect.request, event_server_id=effect.server_id
                )
                events.append((index, event))
            return events
        max_batch = int(caps.get("max_batch") or 1024)
        for start in range(0, len(chunk), max_batch):
            window = chunk[start : start + max_batch]
            pending = {ride[0]: ride for ride in window}
            try:
                conn = await self._connection()
                # A binary connection packs live Message objects
                # natively — skip the JSON tagging round trip.
                binary = conn.codec != CODEC_JSON
                if binary:
                    # Prepacked sub-envelopes: the generic encoding walk
                    # runs once per distinct request message, not once
                    # per (message, server) pair.
                    requests: List[Any] = [
                        pack_send_envelope(
                            request_id, server, effect.key, effect.request
                        )
                        for request_id, _, server, effect in window
                    ]
                else:
                    requests = [
                        {
                            "op": "send",
                            "id": request_id,
                            "server": server,
                            "key": effect.key,
                            "message": encode_message(effect.request),
                        }
                        for request_id, _, server, effect in window
                    ]
                async with asyncio.timeout(self.timeout):
                    reply = await self._request_on(
                        conn, {"op": "batch", "requests": requests}
                    )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                await self._redial()
                events.extend(_dropped(window))
                continue
            if not reply.get("ok"):
                raise ServiceError(
                    f"batch failed: {reply.get('error')}: {reply.get('detail')}"
                )
            for sub in reply["value"]:
                # By id, first answer wins: a reordering or repeating
                # peer cannot hand one session another's reply.
                ride = pending.pop(sub.get("id") if isinstance(sub, dict) else None, None)
                if ride is not None:
                    _, index, _, effect = ride
                    event = self._reply_event(effect.server_id, sub, decoded=binary)
                    events.append((index, event))
            events.extend(_dropped(pending.values()))
        return events


__all__ = [
    "AsyncLookupClient",
    "Route",
    "SchemeInfo",
    "ServiceError",
    "ServiceInfo",
    "contact_order",
    "pump",
    "pump_many",
]
