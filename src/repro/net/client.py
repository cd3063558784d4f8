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

After a timeout the connection is re-established: the stale reply may
still arrive on the old stream, and reconnecting is the simplest way
to keep request/reply framing in lockstep (the single-request wire
path carries no request ids — one in-flight request per connection;
only ``batch`` envelopes correlate by id).

Typed surface: :meth:`~AsyncLookupClient.lookup` and
:meth:`~AsyncLookupClient.lookup_many` return the frozen
:class:`repro.net.results.LookupResult` / ``LookupReport``;
``ping``/``info``/``verify``/``capabilities``/``membership``/``batch``
cover the control ops.  Raw envelopes are a private escape hatch
(:meth:`~AsyncLookupClient._request`).

Codec: ``codec="json"`` (the default) speaks exactly the legacy wire
— no hello, byte-identical frames.  ``codec="binary"`` negotiates
per connection via the ``hello`` op, falling back to JSON
(and, for batches, to sequential lookups) when the peer predates the
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
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.client import RetryPolicy
from repro.net.codec import (
    CODEC_JSON,
    SUPPORTED_CODECS,
    decode_value,
    encode_frame_fragments,
    encode_message,
    pack_send_envelope,
    read_frame,
    write_frames,
)
from repro.cluster.messages import Message
from repro.net.results import LookupReport, LookupResult
from repro.protocol.effects import Complete, SendRequest, Sleep
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


class _Conn:
    """One pooled connection: streams plus negotiated wire state.

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
    pool_size:
        Connections ``lookup_many`` may fan batches over.  Control
        ops and single lookups always use the first connection.
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
        pool_size: int = 1,
    ) -> None:
        if codec not in ("json", "binary"):
            raise ValueError(f"codec must be json or binary: {codec!r}")
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry_policy = retry_policy
        self.codec = codec
        self.pool_size = pool_size
        self._rng = rng if rng is not None else random.Random()
        self._pool: Dict[int, _Conn] = {}
        self._info: Optional[ServiceInfo] = None

    # -- connection management ----------------------------------------------

    @property
    def _reader(self) -> Optional[asyncio.StreamReader]:
        conn = self._pool.get(0)
        return None if conn is None else conn.reader

    @property
    def _writer(self) -> Optional[asyncio.StreamWriter]:
        conn = self._pool.get(0)
        return None if conn is None else conn.writer

    async def connect(self) -> None:
        await self._conn(0)

    async def _conn(self, index: int) -> _Conn:
        conn = self._pool.get(index)
        if conn is None:
            reader, writer = await asyncio.open_connection(self.host, self.port)
            conn = _Conn(reader, writer)
            self._pool[index] = conn
        return conn

    async def close(self) -> None:
        pool, self._pool = self._pool, {}
        for conn in pool.values():
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

    async def _drop_conn(self, index: int) -> None:
        conn = self._pool.pop(index, None)
        if conn is None:
            return
        conn.writer.close()
        try:
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _reconnect(self, index: int = 0) -> None:
        await self._drop_conn(index)
        await self._conn(index)

    # -- raw envelope round-trips --------------------------------------------

    async def _request(self, envelope: dict[str, Any]) -> dict[str, Any]:
        """One envelope round-trip on the first connection, no timeout.

        Raises :class:`ServiceError` if the connection drops before
        the reply arrives.  Used for the control ops; data-path sends
        go through the timeout-aware path inside :meth:`lookup`.
        """
        conn = await self._conn(0)
        if self.codec != "json" and conn.caps is None and envelope.get("op") != "hello":
            await self._negotiate(conn)
        return await self._request_on(conn, envelope)

    async def _request_on(self, conn: _Conn, envelope: dict[str, Any]) -> dict[str, Any]:
        try:
            async with conn.lock:
                # Vectorized sender: the binary codec emits a fragment
                # list (prepacked sub-envelopes spliced by reference)
                # through one writelines(); JSON stays byte-identical.
                await write_frames(
                    conn.writer, (encode_frame_fragments(envelope, conn.codec),)
                )
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

    async def _negotiate(self, conn: _Conn) -> None:
        """Run the hello exchange on ``conn`` (idempotent).

        A peer that answers ``bad-request`` predates negotiation:
        record empty capabilities and keep speaking JSON — the
        mandatory fallback — so old servers keep working unchanged.
        """
        if conn.caps is not None:
            return
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
        conn = await self._conn(0)
        await self._negotiate(conn)
        if not (conn.caps or {}).get("batch"):
            raise ServiceError("peer does not support batch envelopes")
        reply = await self._request_on(
            conn, {"op": "batch", "requests": list(envelopes)}
        )
        if not reply.get("ok"):
            raise ServiceError(
                f"batch failed: {reply.get('error')}: {reply.get('detail')}"
            )
        return reply["value"]

    # -- the lookup driver ----------------------------------------------------

    def _contact_order(self, scheme: SchemeInfo, servers: int) -> List[int]:
        """Materialize the scheme's declared contact order locally.

        Mirrors ``Client._resolve_order``: a stride draws its start
        first, then builds the walk, so seeded async and simulated
        clients agree on draw order.
        """
        order = scheme.order
        if isinstance(order, dict) and "stride" in order:
            start = self._rng.randrange(servers)
            return stride_order(servers, start, order["stride"], self._rng)
        return random_order(servers, self._rng)

    async def _scheme_spec(self, scheme: str) -> tuple[SchemeInfo, int]:
        info = await self.info()
        spec = info.schemes.get(scheme)
        if spec is None:
            raise ServiceError(
                f"service does not host scheme {scheme!r} "
                f"(hosts: {', '.join(sorted(info.schemes))})"
            )
        return spec, info.servers

    def _session(
        self,
        scheme: str,
        target: int,
        spec: SchemeInfo,
        servers: int,
        retry: Optional[RetryPolicy],
    ) -> LookupSession:
        return LookupSession(
            scheme,
            target,
            self._contact_order(spec, servers),
            max_servers=spec.max_servers,
            retry_policy=self.retry_policy if retry is None else retry,
            rng=self._rng,
        )

    async def lookup(
        self,
        scheme: str,
        target: int,
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> LookupResult:
        """One partial lookup for ``target`` entries under ``scheme``.

        Contacts real sockets but never raises on shortfall — like the
        simulated client, a short answer comes back as a labelled
        degraded :class:`~repro.net.results.LookupResult`.
        """
        spec, servers = await self._scheme_spec(scheme)
        session = self._session(scheme, target, spec, servers, retry)
        effects = session.start()
        while True:
            event: Optional[Event] = None
            for effect in effects:
                if isinstance(effect, SendRequest):
                    event = await self._contact(effect)
                elif isinstance(effect, Sleep):
                    await asyncio.sleep(effect.delay)
                    event = SLEPT
                elif isinstance(effect, Complete):
                    conn = self._pool.get(0)
                    return LookupResult.from_core(
                        scheme,
                        effect.result,
                        codec=conn.codec if conn is not None else CODEC_JSON,
                    )
            effects = session.on_event(event)

    async def _contact(self, effect: SendRequest) -> Event:
        """Enact one ``SendRequest`` over the socket."""
        return await self.contact_server(
            effect.server_id, effect.key, effect.request
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

        The public face of the data path, also pumped by the
        :class:`~repro.net.router.ShardRouter` whose sessions span
        several shards: ``event_server_id`` lets the caller stamp the
        returned event with the *session's* contact index when it
        differs from the wire-level server id.
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
            # A late reply on the old stream would desync framing;
            # start the next request on a fresh connection.
            try:
                await self._reconnect()
            except OSError:
                await self.close()
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

    # -- batched lookups -------------------------------------------------------

    async def lookup_many(
        self,
        scheme: str,
        targets: Sequence[int],
        *,
        retry: Optional[RetryPolicy] = None,
    ) -> LookupReport:
        """Many partial lookups under ``scheme``, pipelined per round.

        Every live session's next ``send`` is packed into one
        ``batch`` frame per pooled connection and the replies are
        correlated back by request id — so a round costs one round
        trip per connection regardless of how many lookups ride it,
        and a stalled or reordering peer cannot mismatch replies.
        Results come back in request order inside a
        :class:`~repro.net.results.LookupReport`.

        Against a peer without batch support (pre-negotiation server)
        this transparently degrades to sequential single lookups.
        """
        spec, servers = await self._scheme_spec(scheme)
        conn = await self._conn(0)
        await self._negotiate(conn)
        if not (conn.caps or {}).get("batch"):
            results = [
                await self.lookup(scheme, target, retry=retry) for target in targets
            ]
            return LookupReport(results=tuple(results))
        max_batch = int((conn.caps or {}).get("max_batch") or 1024)

        sessions = [
            self._session(scheme, target, spec, servers, retry)
            for target in targets
        ]
        results: List[Optional[LookupResult]] = [None] * len(sessions)
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
                elif isinstance(effect, Complete):
                    results[index] = LookupResult.from_core(
                        scheme, effect.result, codec=conn.codec
                    )

        for index, session in enumerate(sessions):
            absorb(index, session.start())

        while sends or sleeps:
            if sends:
                # Spread this round's sends across the pool, then run
                # the per-connection batches concurrently.
                per_conn: Dict[int, List[tuple[int, int, SendRequest]]] = {}
                for index, effect in sends.items():
                    request_id = next_id
                    next_id += 1
                    per_conn.setdefault(index % self.pool_size, []).append(
                        (request_id, index, effect)
                    )
                sends = {}
                rounds = await asyncio.gather(
                    *(
                        self._batch_round(conn_index, chunk, scheme, max_batch)
                        for conn_index, chunk in per_conn.items()
                    )
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

        return LookupReport(results=tuple(results))  # type: ignore[arg-type]

    async def _batch_round(
        self,
        conn_index: int,
        chunk: List[tuple[int, int, SendRequest]],
        scheme: str,
        max_batch: int,
    ) -> List[tuple[int, Event]]:
        """One batch frame round trip on one pooled connection.

        Returns ``(session_index, event)`` pairs.  A timeout or broken
        connection fails every ride-along send as dropped (the exact
        semantics one timed-out single request has) and redials.
        """
        events: List[tuple[int, Event]] = []
        for start in range(0, len(chunk), max_batch):
            window = chunk[start : start + max_batch]
            by_id = {
                request_id: (index, effect)
                for request_id, index, effect in window
            }
            try:
                conn = await self._conn(conn_index)
                if conn_index != 0:
                    await self._negotiate(conn)
                # A binary connection packs live Message objects
                # natively — skip the JSON tagging round trip.
                binary = conn.codec != CODEC_JSON
                if binary:
                    # Prepacked sub-envelopes: the generic encoding walk
                    # runs once per distinct request message, not once
                    # per (message, server) pair.
                    requests: List[Any] = [
                        pack_send_envelope(
                            request_id, effect.server_id, effect.key, effect.request
                        )
                        for request_id, _, effect in window
                    ]
                else:
                    requests = [
                        {
                            "op": "send",
                            "id": request_id,
                            "server": effect.server_id,
                            "key": effect.key,
                            "message": encode_message(effect.request),
                        }
                        for request_id, _, effect in window
                    ]
                async with asyncio.timeout(self.timeout):
                    reply = await self._request_on(
                        conn, {"op": "batch", "requests": requests}
                    )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                try:
                    await self._reconnect(conn_index)
                except OSError:
                    await self._drop_conn(conn_index)
                for request_id, index, effect in window:
                    events.append(
                        (index, ContactFailed(effect.server_id, dropped=True))
                    )
                continue
            if not reply.get("ok"):
                raise ServiceError(
                    f"batch failed: {reply.get('error')}: {reply.get('detail')}"
                )
            answered = set()
            for sub in reply["value"]:
                request_id = sub.get("id") if isinstance(sub, dict) else None
                matched = by_id.get(request_id)
                if matched is None or request_id in answered:
                    continue
                answered.add(request_id)
                index, effect = matched
                events.append(
                    (
                        index,
                        self._reply_event(effect.server_id, sub, decoded=binary),
                    )
                )
            for request_id, index, effect in window:
                if request_id not in answered:
                    events.append(
                        (index, ContactFailed(effect.server_id, dropped=True))
                    )
        return events


__all__ = [
    "AsyncLookupClient",
    "SchemeInfo",
    "ServiceError",
    "ServiceInfo",
]
