"""The asyncio lookup service: a cluster behind a listening socket.

One :class:`LookupService` hosts one in-process
:class:`~repro.cluster.cluster.Cluster` with all five paper schemes
installed side by side — each scheme under its own key (the scheme
name), which is exactly how the multi-key directory composes
strategies.  Client requests arrive as framed envelopes (see
:mod:`repro.net.codec`), are routed through
:meth:`Network.send <repro.cluster.network.Network.send>` to the
addressed server's :class:`~repro.protocol.server.ServerProtocol`, and
the reply is framed back.  Routing through the simulated network —
rather than calling the protocol directly — keeps the Section 6.4
message accounting and failed-server suppression identical to the
simulated driver, so a socket client observes the same error surface
(``"unavailable"`` for a failed server) a simulated client does.

Server-to-server choreography (Round-Robin's delete migration,
RandomServer's broadcasts) stays in-process on the hosted cluster; the
wire carries only client↔service traffic.  This mirrors the paper's
deployment picture, where the lookup servers are one administrative
system and clients reach it over the network.

Concurrency: each connection is one :class:`_Connection` protocol
that answers a frame synchronously as soon as it is in, so envelope
processing is serialized per event-loop step; no locks are needed.
All local state mutation happens inside
:meth:`LookupService.handle_envelope`; the one suspension on the
request path is a worker-fleet reader handing a mutating envelope to
the writer, which parks that connection until the reply is written.

Sharding: with ``shard_count > 1`` the process is one shard of a
fleet.  Key→shard placement comes from :mod:`repro.net.sharding`
(the primary holds a key's full placement, backups a partial
replica), and two extra envelope ops carry the membership plane:
``heartbeat`` (answered with this shard's own heartbeat, so one
round-trip refreshes both failure detectors) and ``membership`` (the
current peer view, consumed by :class:`~repro.net.router.ShardRouter`).
Both delegate to the attached :class:`~repro.net.membership
.MembershipPump`, keeping :meth:`LookupService.handle_envelope` pure
dispatch over injected state.

What a valid request *is* lives in one place: :data:`OP_SCHEMA` (each
op's handler and fields) and :data:`MESSAGE_SCHEMA` (the fields of the
messages an envelope may carry).  Every envelope, and every batch item,
is checked against them once, right after the frame is decoded and
before it is classified, forwarded or handled; handlers, the reply
cache and :func:`envelope_mutates` only ever see checked requests.
"""

from __future__ import annotations

import asyncio
import base64
import json
import reprlib
import types
from dataclasses import dataclass, field
from typing import Any, Collection, NamedTuple, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.messages import (
    AddRequest,
    DeleteRequest,
    Heartbeat,
    LookupRequest,
    Message,
    PlaceRequest,
)
from repro.cluster.network import DROPPED, is_undelivered
from repro.cluster.snapshots import capture_image
from repro.core.entry import Entry, make_entries
from repro.core.exceptions import InvalidParameterError
from repro.core.storage import masks_before, update_record
from repro.net.cache import DEFAULT_CAPACITY, ReplyCache
from repro.net.codec import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME,
    MESSAGE_TYPES,
    SUPPORTED_CODECS,
    FrameError,
    JsonText,
    Prepacked,
    WireError,
    decode_frame_body,
    decode_value,
    encode_envelope_as,
    encode_message,
    encode_value,
    json_value,
    negotiate_codec,
    pack_send_reply,
    pack_store_bytes,
    pack_value_bytes,
)
from repro.net.sharding import ShardMap, partial_replica
from repro.obs.metrics import MetricsRegistry
from repro.strategies.base import LookupProfile, PlacementStrategy
from repro.strategies.registry import create_strategy

#: The five paper schemes the service hosts, with the parameters the
#: chaos soak gate exercises (one key per scheme on the shared cluster).
DEFAULT_SCHEMES: dict[str, dict[str, int]] = {
    "full_replication": {},
    "fixed": {"x": 10},
    "random_server": {"x": 10},
    "round_robin": {"y": 2},
    "hash": {"y": 2},
}

#: Bytes a parked connection buffers (frames pipelined behind a
#: forwarded write) before it stops reading from its socket.
PARKED_BUFFER = 1 << 17

#: Upper bound on sub-requests per ``batch`` envelope.  Large enough
#: that a client never needs more than one frame per scheduling round,
#: small enough that one malicious frame cannot monopolize the loop.
MAX_BATCH = 1024


# --------------------------------------------------------------------------
# The request schema
# --------------------------------------------------------------------------


def schema_field(name, types, refusal, *, within=None, valid=None, optional=False):
    """One envelope or message field as the check loops unpack it.

    ``types`` are exact (``True`` is not an ``int``); ``within`` names
    the service's own set of valid values (``"servers"``: its server
    ids, ``"schemes"``: its hosted keys); ``valid`` is a predicate for
    what a type cannot say, which may raise :class:`_Refused` to say
    more than ``refusal``.  A plain tuple: a named one unpacks slower.
    """
    return name, types, refusal, within, valid, optional


class Op(NamedTuple):
    """A request op: the :class:`LookupService` method that answers it,
    ``(envelope, raw) -> reply``, and the envelope fields it reads."""

    handler: str
    fields: tuple = ()


class _Refused(Exception):
    """A request the schema refuses; ``str(self)`` is the reply detail.
    ``echo=False``: a batch item refused unread, answered without ``id``."""

    def __init__(self, detail: str, echo: bool = True) -> None:
        super().__init__(detail)
        self.echo = echo


def _refusal(detail: str) -> dict[str, Any]:
    """The one ``bad-request`` reply."""
    return {"ok": False, "error": "bad-request", "detail": detail}


def _unavailable(detail: str) -> dict[str, Any]:
    return {"ok": False, "error": "unavailable", "detail": detail}


def _json_value(value: Any) -> bool:
    """Whether a payload comes back unchanged from the journal's JSON
    and the writer bus's tagged encoding — a tuple, an entry, a dict
    keyed ``"!"`` or by non-strings would not."""
    try:
        return json.loads(json.dumps(value)) == value == encode_value(value)
    except (TypeError, ValueError, RecursionError):
        return False


def _valid_entry(entry: Entry) -> bool:
    return type(entry.entry_id) is str and (
        entry.payload is None or _json_value(entry.payload)
    )


def _valid_message(message: Message) -> bool:
    """A message's own fields against :data:`MESSAGE_SCHEMA`."""
    for name, types, refusal, _, valid, _ in MESSAGE_SCHEMA[type(message)]:
        value = getattr(message, name)
        if type(value) not in types or (valid is not None and not valid(value)):
            raise _Refused(f"{refusal}: {reprlib.repr(value)}")
    return True


def _decoded(value: Any, types: tuple, refusal: str) -> Any:
    """A JSON tagged value (a dict) decoded to one of ``types``, so both
    codecs give the check the same Python value; else :class:`_Refused`."""
    if type(value) is dict:
        try:
            value = decode_value(value)
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise _Refused(f"{refusal}: {exc}") from None
        if type(value) in types:
            return value
    raise _Refused(f"{refusal}: {reprlib.repr(value)}")


#: The paper's four client requests (§2), the only messages a ``send``
#: carries; every other registered message type is server-internal.
CLIENT_REQUESTS = (LookupRequest, AddRequest, DeleteRequest, PlaceRequest)
_UPDATES = (AddRequest, DeleteRequest, PlaceRequest)

_ENTRY = schema_field(
    "entry", (Entry,), "entry must be an Entry with a string id and a JSON payload",
    valid=_valid_entry,
)
_KEY = schema_field("key", (str,), "unknown scheme key", within="schemes")

#: The fields of every message an envelope may carry.
MESSAGE_SCHEMA: dict[type, tuple] = {
    LookupRequest: (schema_field("target", (int,), "lookup target must be an integer"),),
    AddRequest: (_ENTRY,),
    DeleteRequest: (_ENTRY,),
    PlaceRequest: (schema_field(
        "entries", (tuple,), "entries must be a tuple of valid entries",
        valid=lambda entries: all(type(e) is Entry and _valid_entry(e) for e in entries),
    ),),
    Heartbeat: (
        schema_field("sender", (str,), "heartbeat sender must be a string"),
        schema_field("incarnation", (int,), "heartbeat incarnation must be an integer"),
        schema_field(
            "view", (tuple, list), "heartbeat view must hold (peer, state, incarnation)",
            valid=lambda view: all(
                type(row) in (tuple, list) and tuple(map(type, row)) == (str, str, int)
                for row in view
            ),
        ),
    ),
}

#: Every request op by its ``"op"`` value.  Any envelope may also carry
#: an ``id`` (an int or a string, echoed on the reply); a field no op
#: reads is ignored.
OP_SCHEMA: dict[str, Op] = {
    "ping": Op("_handle_ping"),
    "info": Op("_handle_info"),
    "membership": Op("_handle_membership"),
    "send": Op("_handle_send", (
        schema_field("server", (int,), "server id out of range", within="servers"),
        _KEY,
        schema_field(
            "message", CLIENT_REQUESTS, "message must be a PlaceRequest, AddRequest, "
            "DeleteRequest or LookupRequest; server-internal messages never cross "
            "the wire", valid=_valid_message,
        ),
    )),
    "verify": Op("_handle_verify", (_KEY,)),
    "heartbeat": Op("_handle_heartbeat", (schema_field(
        "message", (Heartbeat,), "heartbeat message must be a Heartbeat",
        valid=_valid_message,
    ),)),
    "hello": Op("_handle_hello", (schema_field(
        "codecs", (list,), "codecs must be a list of codec names",
        valid=lambda codecs: all(type(codec) is str for codec in codecs), optional=True,
    ),)),
    # Answered by ``_handle_batch``, whose items may not be batches.
    "batch": Op("_handle_batch", (schema_field(
        "requests", (list,), f"batch requests must be a list of at most {MAX_BATCH} "
        "envelopes", valid=lambda requests: len(requests) <= MAX_BATCH,
    ),)),
}
_SEND = OP_SCHEMA["send"]
_BATCH = OP_SCHEMA["batch"]


@dataclass(frozen=True)
class ServiceConfig:
    """Construction parameters for one :class:`LookupService`.

    The shard fields describe this process's place in a sharded
    fleet (``repro serve --shard i/N``).  The default
    ``shard_count=1`` is the unsharded deployment: one process,
    every key, full placement — byte-identical behaviour to before
    sharding existed.  In a fleet, every shard must be started with
    the same ``shard_count``/``replicas``/``backup_fraction``/
    ``probes`` (and the same topology fields), because routers
    recompute the placement from these values alone.
    """

    server_count: int = 16
    entry_count: int = 40
    seed: int = 0
    schemes: dict[str, dict[str, int]] = field(
        default_factory=lambda: dict(DEFAULT_SCHEMES)
    )
    shard_index: int = 0
    shard_count: int = 1
    replicas: int = 2
    backup_fraction: float = 0.25
    probes: int = 21
    #: Hot-key reply cache capacity (entries); 0 disables the cache.
    cache_size: int = DEFAULT_CAPACITY
    #: Storage backend: ``"memory"`` (the historical default) or
    #: ``"log"`` (append-log durability; requires ``data_dir``).
    store: str = "memory"
    #: Directory for the append-log journal and snapshots.
    data_dir: Optional[str] = None
    #: Open the journal read-only: recover from it, never write to it.
    #: The worker fleet sets this on reader workers — the writer owns
    #: the journal, readers only replay it on (re)start.
    store_read_only: bool = False
    #: Auto-compact the journal after this many records since the last
    #: compaction; 0 disables auto-compaction.
    log_compact_records: int = 4096

    def __post_init__(self) -> None:
        if self.cache_size < 0:
            raise InvalidParameterError(
                f"cache_size must be >= 0, got {self.cache_size}"
            )
        if self.store not in ("memory", "log"):
            raise InvalidParameterError(
                f"store must be 'memory' or 'log', got {self.store!r}"
            )
        if self.store == "log" and not self.data_dir:
            raise InvalidParameterError("store 'log' requires a data_dir")
        if self.log_compact_records < 0:
            raise InvalidParameterError(
                f"log_compact_records must be >= 0, got {self.log_compact_records}"
            )
        if self.shard_count < 1:
            raise InvalidParameterError(
                f"shard_count must be >= 1, got {self.shard_count}"
            )
        if not 0 <= self.shard_index < self.shard_count:
            raise InvalidParameterError(
                f"shard_index must be in [0, {self.shard_count}), "
                f"got {self.shard_index}"
            )
        if self.shard_count > 1 and not 1 <= self.replicas <= self.shard_count:
            raise InvalidParameterError(
                f"replicas must be in [1, {self.shard_count}], got {self.replicas}"
            )


def shard_names(count: int) -> list[str]:
    """The canonical shard names for an ``N``-shard fleet: s0..s{N-1}."""
    return [f"s{i}" for i in range(count)]


def envelope_mutates(envelope: dict[str, Any]) -> bool:
    """Whether this request envelope can change cluster state.

    Only a ``send`` of a client update — place, add or delete — does;
    every other op is a read or control plane.  The service asks only
    of checked envelopes, whose message is live; a JSON envelope that
    has not been checked yet is classified by the type its tagged
    message names.
    """
    if envelope.get("op") != "send":
        return False
    message = envelope.get("message")
    kind = MESSAGE_TYPES.get(message.get("type")) if type(message) is dict else type(message)
    return kind in _UPDATES


def _profile_wire(profile: Optional[LookupProfile]) -> dict[str, Any]:
    """A strategy's lookup profile in wire form (see ``docs/protocols.md``)."""
    if profile is None:
        return {"order": "random", "max_servers": None}
    order: Any = profile.order
    if not isinstance(order, str):
        order = {"stride": order.y}
    return {"order": order, "max_servers": profile.max_servers}


class LookupService:
    """The hosted cluster plus the envelope dispatch loop.

    Parameters
    ----------
    config:
        Topology and scheme selection; see :class:`ServiceConfig`.

    Each configured scheme is created under ``key == scheme name`` and
    immediately placed with the same ``entry_count`` entries, so the
    service is query-ready as soon as the socket is listening.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        #: Append-log journal when ``store == "log"``; None on memory.
        self.journal: Optional[Any] = None
        #: True when this process rebuilt its stores from the journal
        #: instead of placing entries fresh.
        self.recovered = False
        #: Highest writer-bus epoch the journal knew at recovery; a
        #: reader's :class:`~repro.net.workers.DeltaApplier` starts
        #: here instead of zero, so it resyncs only the gap.
        self.recovered_epoch = 0
        #: The update record of the last write applied here (see
        #: :func:`~repro.core.storage.update_record`), None if it moved
        #: nothing: what the fleet's writer ships as the write's delta.
        self.last_record: Optional[dict] = None
        if self.config.store == "log":
            from repro.storage.appendlog import AppendLogJournal

            self.journal = AppendLogJournal(
                self.config.data_dir,
                read_only=self.config.store_read_only,
                compact_every=self.config.log_compact_records,
            )
        self.cluster = Cluster(self.config.server_count, seed=self.config.seed)
        self.strategies: dict[str, PlacementStrategy] = {}
        #: The sets a :func:`schema_field`'s ``within`` names.
        self._ranges = {"servers": range(self.cluster.size), "schemes": self.strategies}
        self.shard_name = f"s{self.config.shard_index}"
        self.roles: dict[str, Optional[int]] = {}
        #: Attached by :class:`~repro.net.membership.MembershipPump`
        #: (or a sans-IO stand-in in tests); None in single-shard runs.
        self.membership: Optional[Any] = None
        self.metrics = MetricsRegistry()
        #: Hot-key reply cache (see :mod:`repro.net.cache`); None when
        #: disabled.
        self.reply_cache: Optional[ReplyCache] = (
            ReplyCache(self.config.cache_size) if self.config.cache_size else None
        )
        #: Per-scheme writer-bus epoch of the scheme's last journaled
        #: delta — the only epoch the service knows: recovered from the
        #: journal, advanced by the writer bus via
        #: :meth:`set_shared_epoch`, folded into compaction snapshots.
        self._shared_epochs: dict[str, int] = {}
        #: Worker-fleet placement (set by :mod:`repro.net.workers`);
        #: the defaults describe a plain single-process serve.
        self.worker_index = 0
        self.worker_count = 1
        self.worker_role = "single"
        #: Reader workers forward mutating envelopes through this
        #: (a :class:`~repro.net.workers.WriteForwarder`); None means
        #: mutations are applied locally.
        self.forwarder: Optional[Any] = None
        entries = make_entries(self.config.entry_count)
        shard_map = (
            ShardMap(shard_names(self.config.shard_count), probes=self.config.probes)
            if self.config.shard_count > 1
            else None
        )
        # Crash recovery: replay the journal into the cluster before any
        # strategy is constructed, so dense interner indices, store
        # order, strategy scratch state and the cluster RNG are all back
        # to the crashed process's values first.
        image = None
        if self.journal is not None and self.journal.has_data():
            loaded = self.journal.load(self.cluster)
            if loaded.stores or loaded.rng_state is not None:
                image = loaded
                self.recovered = True
                self.recovered_epoch = max(loaded.epochs.values(), default=0)
                self._shared_epochs.update(loaded.epochs)
        placed = []
        for name, params in self.config.schemes.items():
            # Every shard creates every strategy (so ``info`` reports a
            # homogeneous scheme catalogue fleet-wide) but places
            # entries only per its role: the primary holds the full
            # set, backups a deterministic partial replica, non-home
            # shards nothing (their servers truthfully answer empty).
            effective = dict(params)
            recovered_key = image is not None and (
                name in image.stores or name in image.params
            )
            if image is not None and name in image.params:
                # The journaled *effective* params (e.g. Hash-y's drawn
                # hash_seed) reconstruct the strategy without consuming
                # RNG, so recovery cannot perturb the random stream.
                effective = dict(image.params[name])
            strategy = create_strategy(name, self.cluster, key=name, **effective)
            role = (
                0
                if shard_map is None
                else shard_map.role(name, self.shard_name, self.config.replicas)
            )
            self.roles[name] = role
            if not recovered_key and role is not None:
                placed.append(name)
                if role == 0:
                    strategy.place(entries)
                else:
                    strategy.place(
                        partial_replica(
                            name, entries, role, self.config.backup_fraction
                        )
                    )
            self.strategies[name] = strategy
        if self.journal is not None and not self.config.store_read_only:
            self._journal_boot_records(placed)
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[_Connection] = set()

    # -- envelope dispatch ---------------------------------------------------

    def handle_envelope(
        self, envelope: dict[str, Any], *, raw: bool = False
    ) -> dict[str, Any]:
        """Process one request envelope locally; returns the reply envelope.

        Pure dispatch — no I/O — so tests can drive the service
        without sockets exactly as a connection does.  A
        request ``id`` (int or str) is echoed verbatim on the reply —
        pipelining clients correlate out-of-order responses by it.

        Everything is applied to this process's own cluster; the
        forwarder is never consulted, which makes this both the whole
        request path of a single-process service and the writer's
        apply step.  It is :meth:`_serve` stepped once: without a
        forwarder that coroutine has nothing to wait for, so it runs
        to completion on its first ``send``.

        ``raw=True`` leaves ``send`` reply values as live
        :class:`~repro.cluster.messages.Message` objects instead of
        JSON-tagged dicts — valid only when the reply goes out on a
        binary connection (whose packer encodes them natively) or
        stays in-process; the JSON encoder cannot carry them.
        """
        steps = self._serve(envelope, raw, None)
        try:
            steps.send(None)
        except StopIteration as done:
            return done.value
        steps.close()
        raise RuntimeError("local dispatch suspended without a forwarder")

    async def _serve(
        self, envelope: dict[str, Any], raw: bool, forwarder: Optional[Any]
    ) -> dict[str, Any]:
        """The one request path: check, classify, then answer here or via
        the writer.

        In a worker fleet every worker answers reads locally but ships
        mutating ops to the single writer; :func:`envelope_mutates` is
        the classify point that splits the two, and the only await on
        the path is that hand-off.  ``forwarder=None`` (a single
        process, or the writer applying a forwarded op) answers
        everything locally without ever suspending.  A request the
        schema refuses goes no further: it is never forwarded, never
        touches the cache and never journals anything.
        """
        try:
            op, checked = self._checked(envelope)
        except _Refused as refused:
            return self._echo_id(envelope, _refusal(str(refused)))
        if op is _BATCH:
            reply = await self._handle_batch(checked, raw, forwarder)
        elif forwarder is not None and envelope_mutates(checked):
            (reply,) = await self._forward(forwarder, [(envelope, op, checked)], raw)
        else:
            reply = self._dispatch(op, checked, raw)
        return self._echo_id(envelope, reply)

    def _checked(self, envelope: Any, item: bool = False) -> tuple[Op, dict]:
        """``envelope``'s op and the envelope its handler may trust — itself,
        or a copy with JSON tagged fields decoded; raises :class:`_Refused`.

        The one validity check, against :data:`OP_SCHEMA`.  A batch
        ``item`` must be an envelope dict of any op but ``batch``.
        """
        if item and type(envelope) is not dict:
            raise _Refused("batch item must be an envelope dict", echo=False)
        name = envelope.get("op")
        op = OP_SCHEMA.get(name) if type(name) is str else None
        if op is None:
            raise _Refused(f"unknown op: {reprlib.repr(name)}")
        if item and op is _BATCH:
            raise _Refused("batch envelopes do not nest", echo=False)
        checked = envelope
        ranges = self._ranges
        for field_name, types, refusal, within, valid, optional in op.fields:
            value = envelope.get(field_name)
            if type(value) not in types:
                if value is None:
                    if optional:
                        continue
                    raise _Refused(f"{name}: missing field {field_name!r}")
                value = _decoded(value, types, refusal)
                if checked is envelope:
                    checked = dict(envelope)
                checked[field_name] = value
            if (within is not None and value not in ranges[within]) or (
                valid is not None and not valid(value)
            ):
                raise _Refused(f"{refusal}: {reprlib.repr(value)}")
        return op, checked

    @staticmethod
    def _echo_id(envelope: dict[str, Any], reply: dict[str, Any]) -> dict[str, Any]:
        request_id = envelope.get("id")
        if type(request_id) in (int, str):
            reply["id"] = request_id
        return reply

    async def _forward(self, forwarder: Any, items: list[tuple], raw: bool) -> list[Any]:
        """``items`` (``(request, op, checked)``, ``op`` None for a refusal
        in ``checked``) answered in order, their writes sent to the writer
        in one ``forwarder.forward(writes, landed)`` call, which calls
        ``landed(reply, current)`` as each write's delta lands here: that
        answers the reads up to the next write, or, if not ``current`` (the
        stores already hold a later write), answers them ``unavailable``.
        A lost writer answers each write not yet landed ``unavailable``.
        Write replies are JSON-shaped: the pipe speaks JSON.
        """
        replies: list[Any] = []
        at = 0

        def landed(reply: Optional[dict], current: bool) -> None:
            nonlocal at
            if reply is not None:
                replies.append(self._echo_id(items[at][0], reply))
                at += 1
            while at < len(items):
                sub, op, checked = items[at]
                if op is not None and envelope_mutates(checked):
                    return
                at += 1
                if op is None:
                    replies.append(checked)
                elif current:
                    replies.append(self._answered(sub, op, checked, raw))
                else:
                    replies.append(self._echo_id(sub, _unavailable(
                        "writer pipe resynced mid-batch")))

        landed(None, True)  # the reads before the first write
        if at < len(items):
            writes = [c for _, op, c in items if op is not None and envelope_mutates(c)]
            try:
                await forwarder.forward(writes, landed)
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                while at < len(items):
                    landed(_unavailable(f"writer worker unreachable: {exc}"), True)
        return replies

    def _dispatch(self, op: Op, envelope: dict[str, Any], raw: bool) -> dict[str, Any]:
        """Answer one checked envelope; the handlers' exception boundary."""
        try:
            return getattr(self, op.handler)(envelope, raw)
        except (WireError, KeyError, TypeError, ValueError) as exc:
            return _refusal(str(exc))
        except Exception as exc:  # noqa: BLE001 - protocol error boundary
            return {"ok": False, "error": "internal", "detail": str(exc)}

    def _handle_ping(self, envelope: dict[str, Any], raw: bool) -> dict[str, Any]:
        return {"ok": True, "value": "pong"}

    def _handle_info(self, envelope: dict[str, Any], raw: bool) -> dict[str, Any]:
        return {"ok": True, "value": self.info()}

    def _handle_membership(self, envelope: dict, raw: bool) -> dict[str, Any]:
        return {"ok": True, "value": self.membership_view()}

    def capabilities(self) -> dict[str, Any]:
        """What this service speaks, as advertised by ``hello``/``info``.

        The ``cache`` block carries the live reply-cache counters (so
        one ``info`` call doubles as a cache-stats probe) and the
        ``workers`` block this process's place in the worker fleet —
        per-process values: each worker owns its own cache.
        """
        cache = self.reply_cache
        cache_caps: dict[str, Any] = {"enabled": cache is not None}
        if cache is not None:
            cache_caps.update(cache.snapshot())
            cache.publish(self.metrics)
        storage_caps: dict[str, Any] = {
            "kind": self.config.store,
            "recovered": self.recovered,
        }
        if self.journal is not None:
            storage_caps.update(self.journal.stats())
            self._publish_storage_metrics()
        return {
            "codecs": list(SUPPORTED_CODECS),
            "batch": True,
            "max_batch": MAX_BATCH,
            "cache": cache_caps,
            "storage": storage_caps,
            "workers": {
                "count": self.worker_count,
                "index": self.worker_index,
                "role": self.worker_role,
            },
        }

    def _publish_storage_metrics(self) -> None:
        """Mirror the journal's bookkeeping into the metrics registry."""
        stats = self.journal.stats()
        self.metrics.gauge("storage_log_records").set(stats["log_records"])
        self.metrics.gauge("storage_log_bytes").set(stats["log_bytes"])
        self.metrics.gauge("storage_compactions").set(stats["compactions"])
        self.metrics.gauge("storage_last_compaction_epoch").set(
            stats["last_compaction_epoch"]
        )
        self.metrics.gauge("storage_recovered").set(1 if self.recovered else 0)

    def _handle_hello(self, envelope: dict[str, Any], raw: bool) -> dict[str, Any]:
        value = self.capabilities()
        value["codec"] = negotiate_codec(envelope.get("codecs"))
        return {"ok": True, "value": value}

    async def _handle_batch(
        self, envelope: dict[str, Any], raw: bool, forwarder: Optional[Any]
    ) -> dict[str, Any]:
        """The batch op: items answered in order.

        Each item is checked as a request of its own — a refused item
        is one refused sub-reply — and each sub-reply echoes its own
        request id for correlation.  Without a forwarder every item is
        answered here, one by one.  A fleet worker checks every item
        first, then hands all the batch's writes to the writer at once
        (:meth:`_forward`): each read is answered as its write's delta
        lands here, so a client that mutates and reads in one batch
        reads exactly the writes before each read.
        """
        if forwarder is not None:
            items = []
            for sub in envelope["requests"]:
                try:
                    items.append((sub, *self._checked(sub, item=True)))
                except _Refused as refused:
                    reply = _refusal(str(refused))
                    reply = self._echo_id(sub, reply) if refused.echo else reply
                    items.append((sub, None, reply))
            return {"ok": True, "value": await self._forward(forwarder, items, raw)}
        replies: list[Any] = []
        for sub in envelope["requests"]:
            try:
                op, checked = self._checked(sub, item=True)
            except _Refused as refused:
                reply = _refusal(str(refused))
                replies.append(self._echo_id(sub, reply) if refused.echo else reply)
                continue
            replies.append(self._answered(sub, op, checked, raw))
        return {"ok": True, "value": replies}

    def _answered(self, sub: dict[str, Any], op: Op, checked: dict, raw: bool) -> Any:
        """A checked read item's sub-reply."""
        reply = self._dispatch(op, checked, raw)
        request_id = sub.get("id")
        if raw and op is _SEND and type(request_id) is int and request_id >= 0 and reply["ok"]:
            # The binary-connection hot path: an ok send reply is packed
            # to its final wire bytes right here, so the frame encoder
            # later copies it in instead of walking the reply dict again.
            return pack_send_reply(request_id, reply["value"])
        return self._echo_id(sub, reply)

    def info(self) -> dict[str, Any]:
        """The ``info`` op: topology plus per-scheme lookup profiles."""
        schemes = {}
        for name, strategy in self.strategies.items():
            schemes[name] = {
                "params": dict(self.config.schemes[name]),
                "profile": _profile_wire(strategy.lookup_profile()),
            }
        return {
            "servers": self.cluster.size,
            "entries": self.config.entry_count,
            "seed": self.config.seed,
            "schemes": schemes,
            "capabilities": self.capabilities(),
            "shard": {
                "name": self.shard_name,
                "index": self.config.shard_index,
                "count": self.config.shard_count,
                "replicas": self.config.replicas,
                "backup_fraction": self.config.backup_fraction,
                "probes": self.config.probes,
                "roles": dict(self.roles),
            },
        }

    def membership_view(self) -> dict[str, Any]:
        """The ``membership`` op: this shard's current peer view.

        An unsharded service reports the one-row view of itself, so
        a :class:`~repro.net.router.ShardRouter` pointed at a single
        process still gets a well-formed answer.
        """
        if self.membership is None:
            return {
                "name": self.shard_name,
                "incarnation": 0,
                "view": [[self.shard_name, "alive", 0]],
            }
        return self.membership.view_wire()

    def _handle_heartbeat(self, envelope: dict, raw: bool) -> dict[str, Any]:
        if self.membership is None:
            return _refusal("service has no membership plane (not sharded)")
        reply = self.membership.on_wire_heartbeat(envelope["message"])
        return {"ok": True, "value": encode_message(reply)}

    # -- reply-cache invalidation --------------------------------------------

    def note_mutation(
        self, key: str, servers: Optional[Collection[int]] = None
    ) -> None:
        """Record that ``key``'s stores are (about to be) changed.

        Drops the scheme's cached replies: only those of ``servers``
        when the caller knows which stores will change (a writer delta
        names them), else all of them (a local mutation cannot know in
        advance which servers its messages reach).  Called *before*
        the change is applied, so even a mutation that dies half-way
        can never leave a pre-mutation reply reachable.
        """
        if self.reply_cache is not None:
            self.reply_cache.invalidate(key, servers)

    def flush_cache(self) -> None:
        """Drop every cached reply (e.g. after out-of-band store edits)."""
        if self.reply_cache is not None:
            self.reply_cache.clear()

    # -- durable storage -----------------------------------------------------

    def _journal_boot_records(self, placed: list[str]) -> None:
        """Journal the boot: each key placed fresh as one update record,
        diffed from empty stores, then params, scratch and RNG.

        A recovery boot places nothing it recovered, and every other
        record here dedupes to nothing.  The flush at the end puts the
        whole boot on disk in one piece.
        """
        journal = self.journal
        for key in placed:
            record = update_record(key, self.cluster.stores(key))
            if record is not None:
                journal.append(record)
        journal.record_params(
            {name: strategy.params() for name, strategy in self.strategies.items()}
        )
        for server in self.cluster.servers:
            for key in server.keys():
                journal.record_state(key, server.server_id, server.state(key))
        journal.record_rng(self.cluster.rng)
        journal.flush()

    def _journal_sync_point(
        self, key: str, changes: dict[tuple[str, int], dict[Any, Any]]
    ) -> None:
        """Journal a mutation that landed on ``key``'s stores.

        Its update record (:attr:`last_record`) first, then what replay
        cannot re-derive — strategy scratch state (Round-Robin
        counters and positions, reservoir estimates) and the cluster
        RNG position — then a compaction if the log is due.
        ``changes`` is what the write set in scratch state, per
        ``(key, server)``, as the cluster's
        :class:`~repro.cluster.server.StateLog` logged it.  The flush at
        the end is the write barrier: the mutation's records reach the
        log file as one line, before the reply is built.
        """
        journal = self.journal
        if journal is None or journal.read_only:
            return
        if self.last_record is not None:
            journal.append(self.last_record)
        servers = self.cluster.servers
        for (name, sid), before in sorted(changes.items()):
            journal.record_state(name, sid, servers[sid].state(name), before)
        journal.record_rng(self.cluster.rng)
        if journal.should_compact():
            self.compact_journal()
        journal.flush()

    def compact_journal(self) -> None:
        """Fold the journal's live logs into one snapshot, now."""
        if self.journal is None or self.journal.read_only:
            return
        image = capture_image(
            self.cluster,
            epochs=dict(self._shared_epochs),
            params={
                name: strategy.params()
                for name, strategy in self.strategies.items()
            },
        )
        self.journal.compact(
            image, epoch=max(self._shared_epochs.values(), default=0)
        )

    def set_shared_epoch(self, key: str, epoch: int) -> None:
        """Record the writer-bus epoch of ``key``'s last applied delta.

        Called by the writer bus — never by local mutation
        bookkeeping — so the next compaction snapshot carries the
        epoch a recovering fleet resumes its delta sequence from.
        """
        self._shared_epochs[key] = epoch

    # -- warm handoff (worker fleet) -----------------------------------------

    def export_hot_set(self, limit: int = 256) -> list[dict[str, Any]]:
        """The local cache's hot rows, wire-shaped for the writer bus.

        MRU-first.  Binary bodies travel base64-wrapped — the bus
        speaks JSON — and spliced JSON bodies as their text.
        """
        if self.reply_cache is None:
            return []
        rows: list[dict[str, Any]] = []
        for key, payload in self.reply_cache.export_hot(limit):
            body: Any = payload  # a tagged JSON value
            if key[0] == CODEC_BINARY:
                body = base64.b64encode(payload.data).decode("ascii")
            elif type(payload) is JsonText:
                body = payload.text
            rows.append({"slot": list(key), "body": body})
        return rows

    def import_hot_set(self, rows: Any) -> int:
        """Adopt a warm-handoff hot set into the local cache; row count.

        The caller guarantees the rows describe this process's
        *current* store state (the fleet ships them in the same
        ``sync_reply`` as the snapshot and applies both without
        yielding).  Malformed rows are skipped — the handoff is
        best-effort.
        """
        cache = self.reply_cache
        if cache is None or type(rows) is not list:
            return 0
        imported = 0
        for row in reversed(rows):  # hottest rows land most-recent
            try:
                codec, op, scheme, server, target = row["slot"]
                body = row["body"]
            except (LookupError, TypeError, ValueError):
                continue
            # Only what ``_cache_slot`` builds: a row keyed by ``True``
            # or ``1.0`` would be the row of ``1``.
            if not (
                op == "send"
                and codec in SUPPORTED_CODECS
                and type(scheme) is str
                and scheme in self.strategies
                and type(server) is int
                and type(target) is int
            ):
                continue
            payload: Any = body
            if codec == CODEC_BINARY:
                try:
                    payload = Prepacked(base64.b64decode(body.encode("ascii")))
                except (AttributeError, ValueError):
                    continue
            elif type(body) is str:
                payload = JsonText(body)
            cache.put((codec, op, scheme, server, target), payload)
            imported += 1
        return imported

    def _cache_slot(
        self, server_id: int, key: str, message: LookupRequest, raw: bool
    ) -> Optional[tuple]:
        """The cache key for this checked lookup, or None when not cacheable.

        Only the RNG-free lookup shape is cacheable (see
        :mod:`repro.net.cache`): a lookup whose target is zero/negative
        or covers the server's whole store, on a live server, with no
        fault plan installed (fault injection consumes RNG and may
        drop/duplicate — never short-circuit it).
        """
        if self.cluster.network.fault_injector is not None:
            return None
        server = self.cluster.servers[server_id]
        if not server.alive:
            return None
        if 0 < message.target < server.stored_entry_count(key):
            return None  # RNG-sampled answer: not deterministic
        codec = CODEC_BINARY if raw else CODEC_JSON
        return (codec, "send", key, server_id, message.target)

    def _handle_send(self, envelope: dict[str, Any], raw: bool) -> dict[str, Any]:
        server_id = envelope["server"]
        key = envelope["key"]
        message = envelope["message"]
        network = self.cluster.network
        cache = self.reply_cache
        slot = None
        # A checked message is a client request: a lookup, or an update.
        mutates = type(message) is not LookupRequest
        if mutates:
            # Invalidate-before-apply: no post-mutation request may
            # ever see a pre-mutation cached reply, even if the
            # handler raises half-way through.
            self.note_mutation(key)
            stores = self.cluster.stores(key)
            masks = masks_before(stores)
            base = len(stores[0].interner)
            state_log = self.cluster.state_log
            if self.journal is not None and not self.journal.read_only:
                state_log.open()
        elif cache is not None:
            slot = self._cache_slot(server_id, key, message, raw)
            if slot is not None:
                payload = cache.get(slot)
                if payload is not None:
                    self._book_cached_send(network, server_id, message)
                    return {"ok": True, "value": payload}
        try:
            reply = network.send(server_id, key, message)
        finally:
            if mutates:
                # The sync point: every store's mask diffed into the
                # write's update record, journaled with the strategy
                # state and RNG position it advanced to.  In a
                # ``finally`` because a handler that raises half-way
                # has still mutated, and the writer ships that partial
                # diff to the readers.
                self.last_record = update_record(key, stores, masks, base)
                self._journal_sync_point(key, state_log.close())
        if is_undelivered(reply):
            code = "dropped" if reply is DROPPED else "unavailable"
            return {
                "ok": False,
                "error": code,
                "detail": f"server {server_id} did not process the message",
            }
        if raw:
            value = reply
        elif mutates:
            # An update's ack stays JSON-shaped: the writer pipe carries it.
            value = encode_value(reply)
        else:
            value = json_value(reply)
        if slot is not None:
            # Pack once, serve many: the cached payload is already in
            # its wire form, so a later hit costs one memcpy.
            if raw:
                # The one shape ``_cache_slot`` admits is answered with
                # the addressed store, whole and in order, so the bytes
                # can come from its index list.
                body = pack_store_bytes(self.cluster.servers[server_id].store(key))
                value = Prepacked(pack_value_bytes(reply) if body is None else body)
            cache.put(slot, value)
        return {"ok": True, "value": value}

    @staticmethod
    def _book_cached_send(
        network: Any, server_id: int, message: Message
    ) -> None:
        # A cache hit must keep the Section 6.4 books identical to the
        # uncached path: the message *was* served.
        network.stats.record(server_id, message)
        if network._message_log is not None:
            network._message_log.append((server_id, type(message).__name__))

    def _handle_verify(self, envelope: dict[str, Any], raw: bool) -> dict[str, Any]:
        strategy = self.strategies[envelope["key"]]
        return {
            "ok": True,
            "value": {
                "coverage": strategy.coverage(),
                "storage_cost": strategy.storage_cost(),
                "entry_count": self.config.entry_count,
                "operational": sum(1 for s in self.cluster.servers if s.alive),
            },
        }

    # -- the socket face -----------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, *, sock: Any = None
    ) -> tuple[str, int]:
        """Bind and begin serving; returns the bound (host, port).

        ``port=0`` binds an ephemeral port — the CI smoke job and the
        benchmarks use this to avoid port collisions, reading the real
        port from the return value (or the ``--ready-file`` at the CLI).
        ``sock`` serves an already-bound listening socket instead —
        the worker fleet uses this to put every worker's acceptor on
        one ``SO_REUSEPORT`` port (see :mod:`repro.net.workers`).
        Each connection is one :class:`_Connection`.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        where = {"sock": sock} if sock is not None else {"host": host, "port": port}
        self._server = await loop.create_server(lambda: _Connection(self), **where)
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("service not started")
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening; close every connection, cancel a parked
        forward, and return once all of them are gone."""
        if self._server is None:
            return
        self._server.close()
        connections = list(self._connections)
        parked = [conn.parked for conn in connections if conn.parked is not None]
        for conn in connections:
            if conn.parked is not None:
                conn.parked.cancel()
            conn.transport.close()
        await self._server.wait_closed()
        self._server = None
        await asyncio.gather(
            *parked, *(conn.closed for conn in connections), return_exceptions=True
        )


@types.coroutine
def _resumed(steps: Any, pending: Any) -> Any:
    """The rest of a coroutine stepped once by hand: what it waits on
    passes up to the awaiting task, and what comes back, down to it."""
    while True:
        try:
            try:
                sent = yield pending
            except BaseException as exc:  # noqa: BLE001 - handed down as-is
                pending = steps.throw(exc)
            else:
                pending = steps.send(sent)
        except StopIteration as done:
            return done.value


class _Connection(asyncio.Protocol):
    """One client connection: frames in, replies out, in request order.

    Each whole frame is answered as soon as it is in, in the codec the
    last ``hello`` agreed (JSON before one).  A body that frames well
    but does not decode is refused; a malformed body, an oversize
    prefix, or end-of-stream once the frames before it are answered
    closes the connection.  A full write buffer pauses reading and
    answering, in place of ``drain``.  A frame whose
    :meth:`LookupService._serve` suspends — a fleet reader's forwarded
    write — parks the connection until its reply is written; the
    frames behind it wait in the buffer, which stops reading once it
    holds :data:`PARKED_BUFFER` bytes.
    """

    def __init__(self, service: LookupService) -> None:
        self.service = service
        self.codec = CODEC_JSON
        self.buffer = bytearray()
        self.transport: Any = None
        self.parked: Optional[asyncio.Task] = None
        self.paused = self.eof = False
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.service._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.service._connections.discard(self)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if self.parked is not None and len(self.buffer) > PARKED_BUFFER:
            self.transport.pause_reading()
        self._answer_buffered()

    def eof_received(self) -> bool:
        self.eof = True
        self._answer_buffered()
        return True  # half-open until the frames before it are answered

    def pause_writing(self) -> None:
        self.paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.paused = False
        self._answer_buffered()

    def _answer_buffered(self) -> None:
        buffer, transport, service = self.buffer, self.transport, self.service
        while self.parked is None and not self.paused:
            if transport.is_closing():
                return
            if len(buffer) < 4:
                break
            end = 4 + int.from_bytes(buffer[:4], "big")
            if end - 4 > MAX_FRAME:
                transport.close()
                return
            if len(buffer) < end:
                break
            body = bytes(buffer[4:end])
            del buffer[:end]
            try:
                envelope = decode_frame_body(body)
            except WireError:
                # Framed well, but its content (a message type, a tag
                # payload) is not decodable: answer and keep serving.
                self._reply({}, _refusal("undecodable frame body"))
                continue
            except FrameError:
                transport.close()
                return
            raw = self.codec == CODEC_BINARY
            if service.forwarder is None:
                # Through the public entry, so anything wrapping
                # handle_envelope (tracing, test doubles) sees socket
                # traffic too.
                self._reply(envelope, service.handle_envelope(envelope, raw=raw))
                continue
            steps = service._serve(envelope, raw, service.forwarder)
            try:
                pending = steps.send(None)
            except StopIteration as done:
                self._reply(envelope, done.value)
                continue
            self.parked = asyncio.ensure_future(
                self._unpark(envelope, _resumed(steps, pending))
            )
        else:
            return
        if self.eof:
            transport.close()
        else:
            transport.resume_reading()

    async def _unpark(self, envelope: dict[str, Any], rest: Any) -> None:
        try:
            reply = await rest
        except BaseException:
            self.transport.close()
            raise
        finally:
            self.parked = None
        if not self.transport.is_closing():
            self._reply(envelope, reply)
            self._answer_buffered()

    def _reply(self, envelope: dict[str, Any], reply: dict[str, Any]) -> None:
        try:
            data = encode_envelope_as(reply, self.codec)
        except WireError as exc:
            # The encoder raises before a byte is written, so the
            # stream is in sync: refuse this request, keep serving.
            refusal = LookupService._echo_id(envelope, _refusal(f"reply {exc}"))
            data = encode_envelope_as(refusal, self.codec)
        self.transport.write(data)
        if envelope.get("op") == "hello" and reply.get("ok"):
            self.codec = reply["value"]["codec"]


__all__ = [
    "CLIENT_REQUESTS",
    "DEFAULT_SCHEMES",
    "MAX_BATCH",
    "MESSAGE_SCHEMA",
    "OP_SCHEMA",
    "schema_field",
    "LookupService",
    "Op",
    "ServiceConfig",
    "envelope_mutates",
    "shard_names",
]
