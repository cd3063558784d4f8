"""Multi-core serve: an ``SO_REUSEPORT`` worker fleet, single-writer updates.

``repro serve --workers N`` forks N worker processes that all accept
on **one** TCP port.  Each worker hosts a *full* scheme catalogue
built from the same seed, so any worker can answer any read the
process would have answered alone; the kernel load-balances incoming
connections across the workers' ``SO_REUSEPORT`` listening sockets.

Reads scale out; writes stay serial.  Worker 0 is the **writer**: the
only process that ever executes a mutating op (``send`` add / delete /
place).  Reader workers classify incoming envelopes with
:func:`~repro.net.service.envelope_mutates` and forward mutations over
a local Unix-socket *writer pipe*; the writer applies them and fans
the resulting **state delta** back as an epoch-stamped update log.
Reads never block on the writer — a reader keeps answering lookups
from its own catalogue while deltas stream in — and the Section 6.4
``Network.send`` accounting stays exactly where it was: the writer's
cluster books the mutation, each worker's cluster books the lookups it
serves.

Why state deltas and not op replay: every worker's cluster owns an
independently-advancing RNG stream (each lookup it serves draws from
it), so replaying an op whose handler draws RNG (RandomServer's
placement choice, Hash's collisions) would diverge across workers.
The writer's service instead diffs every server's store bitmask around
the apply into the write's *update record*
(:func:`~repro.core.storage.update_record`): the dense indices each
server gained (a swapped payload included) and lost, and the entries
the write interned with the indices they got.  Its journal appends
that record, and the bus ships the same dict; readers apply it
verbatim, by index, checking that their interner gives each new entry
the writer's index.  Lookup answers depend only on store membership,
so converged stores mean converged answers; strategy scratch state
(round-robin heads, reservoirs) only matters for *future mutations*,
which only the writer runs.

Writer-pipe wire schema (JSON frames over the codec's length-prefixed
framing; see ``docs/protocols.md`` §7):

- reader → writer ``{"op": "fwd", "id": n, "envelopes": [{...}...]}``
  — a client batch's mutating envelopes (one, for a lone write), in
  order, JSON-encoded.
- writer → reader ``{"op": "fwd_reply", "id": n, "reply": {...},
  "delta": {...}?}`` — one per envelope, in order: the client reply,
  plus the delta when state changed.
- writer → every other reader ``{"op": "delta", "delta": {...}}``.
- reader → writer ``{"op": "sync", "id": n, "since": E}`` answered by
  ``{"op": "sync_reply", "id": n, "epoch": E, "stores": {...} |
  "deltas": [...], "hot": [...]}`` — a full store snapshot (per
  scheme, one update record from empty stores) or the missed tail of
  the log, used on (re)connect and on gap recovery, plus the writer's
  warm-handoff hot set.

A delta is an update record with its epoch stamped on: ``{"op":
"delta", "key": scheme, "base": i, "new": [[entry_id, payload]...],
"servers": {"<sid>": {"add": [index | [index, payload]...], "drop":
[index...]}}, "epoch": E}`` — ``base``/``new`` only when the write
interned entries, ``add``/``drop`` only when not empty, a payload only
for a held entry that carries one.  Epochs are assigned by the writer
in one global monotonic sequence.

The pipe is a FIFO log, and ordering holds by construction rather
than by repair.  The writer hands every frame an apply produces to the
connections' transports *before its first await*, so each connection
carries strictly increasing, gap-free epochs, and a ``fwd_reply`` or
``sync_reply`` sits in its stream exactly where the state it reports
does.  A reader has one applier — the forwarder's pump — which applies
whatever a frame carries, in arrival order, before it resolves the
request the frame answers: a batch's reads are answered as the write
before each lands, so each sees exactly the writes before it.  A gap
can only follow a fault; it is answered with one ``sync``, and until
its reply arrives deltas are skipped (the snapshot covers them) and
forward replies are held (their batch's writes are all in it).

Failure policy: a dead reader is respawned by the parent supervisor
(it resyncs through the writer pipe on boot); a dead **writer** fails
the whole fleet loudly — the parent tears everything down and exits
non-zero, because a fleet that silently dropped its only mutation
path would serve stale state forever.  Workers hold the read end of a
parent *lifeline pipe* and exit when it reports EOF, so even a
SIGKILLed parent (the chaos harness's habit) leaves no orphans.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.messages import Message
from repro.core.exceptions import InvalidParameterError
from repro.cluster.snapshots import store_records
from repro.core.storage import apply_record
from repro.net.codec import encode_envelope, encode_message, read_frame
from repro.net.service import LookupService, ServiceConfig, envelope_mutates

#: How many times the supervisor revives one reader index before it
#: concludes the failure is systemic and fails the fleet loudly.
MAX_RESPAWNS = 5

#: Recent deltas the writer keeps for ``sync`` requests: a reader at
#: most this far behind catches up from the log, not a full snapshot.
DELTA_HISTORY = 64


# --------------------------------------------------------------------------
# Delta computation and application (sans-IO, unit-testable)
# --------------------------------------------------------------------------


def wire_envelope(envelope: Dict[str, Any]) -> Dict[str, Any]:
    """A checked mutating ``send`` as the writer pipe carries it.

    Just the fields the writer applies — the client's ``id`` and any
    field no op reads stay behind — with the message re-encoded to its
    tagged JSON form, because the pipe speaks JSON.
    """
    message = envelope["message"]
    return {
        "op": "send",
        "server": envelope["server"],
        "key": envelope["key"],
        "message": encode_message(message) if isinstance(message, Message) else message,
    }


def compute_apply_delta(
    service: LookupService, envelope: Dict[str, Any]
) -> Tuple[Dict[str, Any], Optional[Dict[str, Any]]]:
    """Apply ``envelope`` on the writer; returns ``(reply, delta|None)``.

    The delta is the write's update record, built at the service's
    mutation sync point (:attr:`LookupService.last_record`), so a
    handler that raises half-way still yields the partial diff and
    readers converge to whatever state the writer actually reached.
    ``None`` means nothing changed — no fan-out needed.  The epoch
    field is stamped by the caller (the bus owns the sequence).
    """
    service.last_record = None
    reply = service.handle_envelope(envelope)
    return reply, service.last_record


def _stores(service: LookupService, key: Any, servers: Any) -> List[Any]:
    """``key``'s stores by server id, once ``key`` is a hosted scheme
    and every id in ``servers`` a server of this cluster; else raises.

    A reader that skipped what it cannot place would serve stale state
    forever, so a record naming either fails the pump loudly.
    """
    if key not in service.strategies:
        raise ValueError(f"names no scheme of this service: {key!r}")
    for sid in servers:
        if not 0 <= int(sid) < service.cluster.size:
            raise ValueError(f"names no server of this cluster: {sid!r}")
    return service.cluster.stores(key)


def apply_delta(service: LookupService, delta: Dict[str, Any]) -> None:
    """Apply one writer delta to a reader's stores.

    Pure store-membership surgery by dense index
    (:func:`~repro.core.storage.apply_record`) — no strategy logic
    runs, no RNG is drawn, no entry id is resolved — preceded by
    dropping the cached replies of the servers the delta names, and
    only theirs: the stores of every other server do not move.  A delta
    naming a scheme or server this reader lacks is refused before
    anything is touched, and one whose new entries land at other
    indices than the writer's before any store is: either raises, and
    the reader's pump then fails loudly.
    """
    key = delta["key"]
    stores = _stores(service, key, delta["servers"])
    service.note_mutation(key, {int(sid) for sid in delta["servers"]})
    apply_record(stores, delta)


def snapshot_stores(service: LookupService) -> Dict[str, Dict[str, Any]]:
    """A full resync: per scheme, one update record from empty stores —
    the interner's whole order and every server's membership."""
    cluster = service.cluster
    return store_records({key: cluster.stores(key) for key in service.strategies})


def load_snapshot(service: LookupService, snapshot: Dict[str, Dict[str, Any]]) -> None:
    """Adopt a full snapshot (reader resync).

    Each scheme's record is applied as a delta is, to stores emptied
    first, so the reader's interner must agree with the writer's from
    index 0.  Every scheme and server is checked before any store
    moves.  A writable journal records the adoption as one compaction.
    """
    adopted = [
        (key, _stores(service, key, record["servers"]), record)
        for key, record in snapshot.items()
    ]
    for key, stores, record in adopted:
        service.note_mutation(key)
        apply_record(stores, record, replace=True)
    service.compact_journal()


class DeltaApplier:
    """The update log's consumer: apply the next epoch, nothing else.

    Kept sans-IO so the ordering contract is testable without a
    fleet.  ``epoch == applied + 1`` applies; a delta at or below the
    watermark is a duplicate (a journal-recovered epoch arriving
    again) and is skipped; anything else — a gap, or no epoch at all —
    reports ``"resync"``: the caller fetches a snapshot and calls
    :meth:`resync`.
    """

    def __init__(self, service: LookupService, applied: int = 0) -> None:
        self.service = service
        self.applied = applied

    def offer(self, delta: Any) -> str:
        """Feed one delta; returns ``applied|duplicate|resync``.

        A delta whose epoch is not an exact int (``True`` is not epoch
        1) is a gap.  One that is due but malformed raises from
        :func:`apply_delta`, and the watermark stays put.
        """
        epoch = delta.get("epoch") if type(delta) is dict else None
        if type(epoch) is not int:
            return "resync"
        if epoch <= self.applied:
            return "duplicate"
        if epoch != self.applied + 1:
            return "resync"
        apply_delta(self.service, delta)
        self.applied = epoch
        return "applied"

    def resync(self, epoch: int, snapshot: Dict[str, Any]) -> None:
        """Adopt a full snapshot taken at ``epoch``."""
        if type(epoch) is not int:
            raise ValueError(f"snapshot epoch is not an integer: {epoch!r}")
        load_snapshot(self.service, snapshot)
        self.service.flush_cache()
        self.applied = epoch


# --------------------------------------------------------------------------
# The writer bus (worker 0) and the reader-side forwarder
# --------------------------------------------------------------------------


class WriterBus:
    """Worker 0's half of the writer pipe: apply, reply, fan out.

    One Unix-socket server; each reader worker holds one connection.
    :meth:`_handle` and :meth:`_apply` are plain functions: from the
    apply to the last ``write`` of the frames it produced there is no
    await, so every connection's byte stream lists epochs in apply
    order with nothing missing, however forwards from different
    readers and the writer's own clients interleave.  Flow control
    (:meth:`_drain`) comes after everything is queued.
    """

    def __init__(self, service: LookupService, path: str) -> None:
        self.service = service
        self.path = path
        # A restarted writer resumes the epoch sequence where the
        # journal left it, so readers that recovered from the same
        # journal can sync incrementally instead of re-snapshotting.
        self.epoch = service.recovered_epoch
        #: Recent deltas, newest last, for ``sync`` requests carrying a
        #: ``since`` watermark.
        self._history: collections.deque = collections.deque(maxlen=DELTA_HISTORY)
        self._server: Optional[asyncio.AbstractServer] = None
        #: One ``StreamWriter`` per connected reader.
        self._conns: set = set()
        self._tasks: set = set()

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(self._serve, path=self.path)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()
        for writer in list(self._conns):
            writer.close()
        self._conns.clear()

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        self._conns.add(writer)
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                self._handle(frame, writer)
                await self._drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._tasks.discard(task)
            self._conns.discard(writer)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    def _apply(self, envelope: Dict[str, Any], origin: Any) -> Dict[str, Any]:
        """Apply, stamp, journal and fan out — all before any await.

        Returns the ``fwd_reply`` body for ``origin`` (the connection
        the envelope came in on; None for the writer's own clients).
        The delta rides on that reply, so ``origin`` is the one
        connection the broadcast skips.
        """
        reply, delta = compute_apply_delta(self.service, envelope)
        response: Dict[str, Any] = {"reply": reply}
        if delta is None:
            return response
        self.epoch += 1
        delta["epoch"] = self.epoch
        self.service.set_shared_epoch(delta["key"], self.epoch)
        if self.service.journal is not None:
            # Durability barrier: the mutation's records were written
            # at the end of the apply's sync point; the epoch marker is
            # written before any reader sees the delta, so a journal
            # that knows epoch E holds all of E's mutations.
            self.service.journal.record_epoch(delta["key"], self.epoch)
        self._history.append(delta)
        others = [conn for conn in self._conns if conn is not origin]
        if others:
            data = encode_envelope({"op": "delta", "delta": delta})
            for conn in others:
                conn.write(data)
        response["delta"] = delta
        return response

    async def forward(self, envelopes: List[Dict[str, Any]], landed: Any) -> None:
        """The writer's own mutations, through the same epoch log.

        Worker 0's service sets ``forwarder = bus`` so a mutating
        envelope whose client connection landed on the writer itself
        still gets an epoch stamp and fans out to every reader —
        otherwise only the readers' stores would ever converge.  As on
        a reader, ``landed(reply, True)`` follows each write's apply.
        """
        for envelope in envelopes:
            landed(self._apply(envelope, None)["reply"], True)
        await self._drain()

    def _handle(self, frame: Dict[str, Any], writer: Any) -> None:
        """One reader frame in, its reply queued on ``writer``."""
        op = frame.get("op")
        if op == "fwd":
            envelopes = frame.get("envelopes")
            if type(envelopes) is not list or not envelopes:
                envelopes = [None]
            # Each applied through the service's own request check.  A
            # batch would mutate without a delta, and a read has no
            # business here (its JSON reply may be spliced text the
            # pipe does not carry), so neither is taken.
            writer.write(b"".join(encode_envelope(dict(
                self._apply(envelope, writer)
                if type(envelope) is dict and envelope_mutates(envelope)
                else {"reply": {"ok": False, "error": "bad-request",
                                "detail": "fwd wants a list of mutating send envelopes"}},
                op="fwd_reply",
                id=frame.get("id"),
            )) for envelope in envelopes))
            return
        if op == "sync":
            response = {"op": "sync_reply", "epoch": self.epoch}
            since = frame.get("since")
            if isinstance(since, int) and not isinstance(since, bool) and (
                since >= self.epoch
                or (self._history and self._history[0]["epoch"] <= since + 1)
            ):
                # The reader's watermark is within the delta history
                # (a disk-recovered respawn, typically): ship only the
                # missed tail instead of a full snapshot.
                response["deltas"] = [
                    delta for delta in self._history if delta["epoch"] > since
                ]
            else:
                response["stores"] = snapshot_stores(self.service)
            response["hot"] = self.service.export_hot_set()
        else:
            # Unknown bus ops are dropped: the pipe is an internal,
            # version-locked surface (both ends come from one build).
            return
        response["id"] = frame.get("id")
        writer.write(encode_envelope(response))

    async def _drain(self) -> None:
        """Flow control, after the frames are queued; drops dead readers."""
        for conn in list(self._conns):
            try:
                await conn.drain()
            except (ConnectionError, OSError):
                self._conns.discard(conn)


class WriteForwarder:
    """A reader worker's half of the writer pipe.

    Owns the one bus connection.  Requests (``fwd``, ``sync``) are
    written from wherever they arise; everything that comes back goes
    through :meth:`_pump`, the only code that touches this worker's
    stores.  The pump applies what a frame carries — a broadcast
    delta, the delta riding on a ``fwd_reply``, a ``sync_reply``'s
    snapshot and hot set — in arrival order and only then resolves the
    request the frame answers, so each forwarded write is visible
    locally by the time its ``landed`` callback runs.
    """

    def __init__(self, service: LookupService, path: str) -> None:
        self.service = service
        self.path = path
        # A disk-recovered reader starts its watermark at the journal's
        # last known epoch; the boot sync then only fetches the gap.
        self.applier = DeltaApplier(service, applied=service.recovered_epoch)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        #: Per request in flight: its future, and for a ``fwd`` its
        #: ``landed`` callback and how many of its writes are to land.
        self._pending: Dict[int, List[Any]] = {}
        self._next_id = 0
        self._pump_task: Optional[asyncio.Task] = None
        #: A ``sync`` is on its way: deltas are skipped (its snapshot
        #: covers them) and forward replies wait in ``_held`` for it.
        self._syncing = False
        self._held: List[Dict[str, Any]] = []
        #: Called once when the bus connection dies (writer crashed)
        #: or the pump fails to apply what it read: the worker uses it
        #: to stop serving and exit loudly.
        self.on_fatal: Optional[Any] = None
        self._closed = False

    async def start(self) -> None:
        """Connect and resync.

        The bus is up before any reader boots — the supervisor forks
        readers only once the writer reported ready, and a writer that
        dies fails the fleet — so a bus that refuses is as fatal as one
        lost later.
        """
        self._reader, self._writer = await asyncio.open_unix_connection(self.path)
        self._pump_task = asyncio.create_task(self._pump())
        await self._request(self._sync_frame())

    async def stop(self) -> None:
        self._closed = True
        if self._pump_task is not None:
            self._pump_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._pump_task
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await self._writer.wait_closed()

    def _send(self, frame: Dict[str, Any]) -> int:
        """Queue one request frame on the bus connection; returns its id."""
        self._next_id += 1
        frame["id"] = self._next_id
        self._writer.write(encode_envelope(frame))
        return self._next_id

    async def _request(
        self, frame: Dict[str, Any], landed: Any = None, replies: int = 1
    ) -> Dict[str, Any]:
        """One round trip; resolved by the pump once the reply is applied."""
        fid = self._send(frame)
        future = asyncio.get_running_loop().create_future()
        self._pending[fid] = [future, landed, replies]
        try:
            await self._writer.drain()
            return await future
        finally:
            self._pending.pop(fid, None)

    def _sync_frame(self) -> Dict[str, Any]:
        """The next ``sync`` request; building it starts the skip/hold rule."""
        self._syncing = True
        return {"op": "sync", "since": self.applier.applied}

    async def forward(self, envelopes: List[Dict[str, Any]], landed: Any) -> None:
        """Checked mutating envelopes through the writer as one ``fwd``.

        The pump calls ``landed(reply, current)`` once per write, in
        order, after applying its delta here; ``current`` is False when
        the stores already hold a later write of the batch (a resync).
        Raises :class:`ConnectionError` if the bus is lost first.
        """
        frame = {"op": "fwd", "envelopes": [wire_envelope(e) for e in envelopes]}
        await self._request(frame, landed, len(envelopes))

    async def _pump(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                self._on_frame(frame)
        except (ConnectionError, OSError):
            pass
        except Exception:  # noqa: BLE001 - any apply failure is fatal
            # A reader that could not apply a delta or adopt a snapshot
            # would serve stale state forever; report it and let the
            # supervisor respawn the worker.
            print("[serve] writer pipe: cannot apply update", file=sys.stderr)
            traceback.print_exc()
        finally:
            for future, *_ in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("writer bus connection lost")
                    )
            self._pending.clear()
            self._fatal()

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        """Apply one bus frame, then resolve the request it answers."""
        op = frame.get("op")
        if op == "delta":
            self._offer(frame.get("delta") or {})
        elif op == "fwd_reply":
            delta = frame.get("delta")
            if delta is not None:
                self._offer(delta)
            if self._syncing:
                self._held.append(frame)
            else:
                self._resolve(frame)
        elif op == "sync_reply":
            self._adopt(frame)
            self._resolve(frame)
            for held in self._held:
                self._resolve(held, resynced=True)
            self._held.clear()

    def _offer(self, delta: Dict[str, Any]) -> None:
        if self._syncing:
            return
        if self.applier.offer(delta) == "resync":
            # Not awaited: the reply comes back through this pump.
            self._send(self._sync_frame())

    def _adopt(self, reply: Dict[str, Any]) -> None:
        deltas = reply.get("deltas")
        if isinstance(deltas, list):
            # Incremental catch-up: this worker's stores (recovered
            # from the journal, usually) are within the writer's delta
            # history; apply the missed tail in order.
            for delta in deltas:
                if self.applier.offer(delta) == "resync":
                    raise RuntimeError(f"sync_reply tail has a gap at {delta!r}")
        else:
            self.applier.resync(reply.get("epoch", 0), reply.get("stores", {}))
        # The warm handoff lands after the stores are current either
        # way, so every imported row describes the adopted state.
        hot = reply.get("hot")
        if isinstance(hot, list) and hot:
            self.service.import_hot_set(hot)
        self._syncing = False

    def _resolve(self, frame: Dict[str, Any], resynced: bool = False) -> None:
        pending = self._pending.get(frame.get("id"))
        if pending is None or pending[0].done():
            return
        future, landed, pending[2] = pending[0], pending[1], pending[2] - 1
        if landed is not None:
            reply = frame.get("reply")
            if not isinstance(reply, dict):
                reply = {"ok": False, "error": "internal", "detail": "writer sent no reply"}
            try:
                # A resync's snapshot holds the whole batch: this write's
                # own state only if it is the batch's last.
                landed(reply, not resynced or pending[2] == 0)
            except Exception as exc:  # noqa: BLE001 - the caller's, not the pump's
                future.set_exception(exc)
        if pending[2] == 0 and not future.done():
            future.set_result(frame)

    def _fatal(self) -> None:
        callback, self.on_fatal = self.on_fatal, None
        if callback is not None and not self._closed:
            callback()


# --------------------------------------------------------------------------
# The supervisor and its forked workers
# --------------------------------------------------------------------------


def _reuseport_socket(host: str, port: int) -> socket.socket:
    """A socket bound with ``SO_REUSEPORT`` on the fleet's shared port."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


def replace_file(path: str, text: str) -> None:
    """Write ``path`` by atomic replace: a reader sees the old text or
    the new, never an empty or torn file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


class _Supervisor:
    """Fork, watch, respawn readers, fail loud on the writer.

    A worker is forked from this object and reads its configuration
    from the copy it inherited; only its index and ready pipe are
    passed (:meth:`spawn`).
    """

    def __init__(
        self,
        config: ServiceConfig,
        *,
        host: str,
        port: int,
        workers: int,
        ready_file: Optional[str],
    ) -> None:
        if workers < 2:
            raise InvalidParameterError(
                f"the worker fleet wants --workers >= 2, got {workers}"
            )
        self.config = config
        self.host = host
        self.port = port
        self.workers = workers
        self.ready_file = ready_file
        self.ctx = multiprocessing.get_context("fork")
        # Named for this process, so whoever kills it and its workers
        # together can tell which directory nothing is left to remove.
        self.tmpdir = tempfile.mkdtemp(prefix=f"repro-workers-{os.getpid()}-")
        self.bus_path = os.path.join(self.tmpdir, "writer.sock")
        self.procs: Dict[int, Any] = {}
        #: Per worker spawned and not yet waited for, the read end of
        #: its ready pipe (see :meth:`spawn`).
        self._ready: Dict[int, int] = {}
        self.respawns: Dict[int, int] = {}
        self._stop = False
        self._placeholder: Optional[socket.socket] = None
        self._lifeline_r, self._lifeline_w = os.pipe()

    def bind(self) -> None:
        """Pin the fleet's one (host, port) before forking.

        The parent binds a placeholder (never listened on) with
        ``SO_REUSEPORT`` purely to resolve an ephemeral port; each
        worker then binds its own listener on it.
        """
        self._placeholder = _reuseport_socket(self.host, self.port)
        self.host, self.port = self._placeholder.getsockname()[:2]

    # -- the worker side of a fork -------------------------------------------

    def _worker_main(self, index: int, ready_fd: int) -> None:
        # The child inherited the parent's signal handlers and both
        # lifeline ends across fork; reset the former, and drop the write
        # end so the pipe reports EOF the moment the *parent* dies.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        with contextlib.suppress(OSError):
            os.close(self._lifeline_w)
        sys.exit(asyncio.run(self._worker_async(index, ready_fd)))

    async def _worker_async(self, index: int, ready_fd: int) -> int:
        config = self.config
        if config.store == "log" and index != 0:
            # The writer owns the journal; readers replay it on boot (a
            # respawn recovers from disk instead of a full network resync)
            # but never append to it.
            config = dataclasses.replace(config, store_read_only=True)
        service = LookupService(config)
        service.worker_index = index
        service.worker_count = self.workers
        service.worker_role = "writer" if index == 0 else "reader"

        stop = asyncio.Event()
        exit_code = 0
        loop = asyncio.get_running_loop()
        for signame in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signame, stop.set)
        # The lifeline becomes readable exactly once: at EOF, when every
        # write end (held only by the parent) is gone.
        loop.add_reader(self._lifeline_r, stop.set)

        bus: Optional[WriterBus] = None
        forwarder: Optional[WriteForwarder] = None

        def writer_lost() -> None:
            nonlocal exit_code
            exit_code = 1
            stop.set()

        try:
            if index == 0:
                bus = WriterBus(service, self.bus_path)
                await bus.start()
                service.forwarder = bus
            else:
                forwarder = WriteForwarder(service, self.bus_path)
                forwarder.on_fatal = writer_lost
                await forwarder.start()
                service.forwarder = forwarder
            sock = _reuseport_socket(self.host, self.port)
            sock.listen(256)
            await service.start(sock=sock)
            # Listening: one byte on the ready pipe tells the supervisor.
            os.write(ready_fd, b"\n")
            os.close(ready_fd)
            await stop.wait()
        finally:
            loop.remove_reader(self._lifeline_r)
            await service.stop()
            if forwarder is not None:
                await forwarder.stop()
            if bus is not None:
                await bus.stop()
                # The bus's socket and the supervisor's temp dir around it
                # go with the writer, which a SIGKILLed supervisor leaves
                # to exit on its own.
                with contextlib.suppress(OSError):
                    os.unlink(self.bus_path)
                with contextlib.suppress(OSError):
                    os.rmdir(self.tmpdir)
        return exit_code

    # -- process management --------------------------------------------------

    def spawn(self, index: int) -> None:
        """Fork worker ``index`` with the write end of a fresh ready pipe.

        The worker writes one byte to it once it listens.  The parent
        closes its copy of the write end as soon as the fork is done,
        before any other fork, so the worker holds the only one: the
        read end reports EOF if the worker exits without reporting.
        """
        ready_r, ready_w = os.pipe()
        process = self.ctx.Process(
            target=self._worker_main,
            args=(index, ready_w),
            name=f"repro-worker-{index}",
        )
        self._ready[index] = ready_r
        try:
            process.start()
        finally:
            os.close(ready_w)
        self.procs[index] = process

    def wait_ready(self, index: int, timeout: float = 30.0) -> None:
        """Block until worker ``index`` reports ready; raise as soon as
        it exits instead, or once ``timeout`` seconds pass."""
        ready = self._ready.pop(index)
        process = self.procs[index]
        deadline = time.monotonic() + timeout
        try:
            fired = multiprocessing.connection.wait([ready, process.sentinel], timeout)
            if ready in fired and os.read(ready, 1):
                return
        finally:
            os.close(ready)
        # EOF or the sentinel: the worker is exiting, if not yet gone.
        process.join(max(0.0, deadline - time.monotonic()))
        if process.exitcode is not None:
            raise RuntimeError(f"worker {index} exited {process.exitcode} at boot")
        raise RuntimeError(f"worker {index} never became ready")

    def write_manifests(self) -> None:
        """The parent ready file plus the worker pid manifest.

        The manifest (``<ready-file>.workers``, one ``index pid`` line
        per live worker) is how the chaos harness finds victims; it is
        replaced after every respawn.
        """
        if not self.ready_file:
            return
        replace_file(
            f"{self.ready_file}.workers",
            "".join(f"{index} {self.procs[index].pid}\n" for index in sorted(self.procs)),
        )

    def start_fleet(self) -> None:
        self.bind()
        # Writer first: the bus socket must exist before readers dial
        # it (they retry, but an ordered boot keeps logs clean).
        self.spawn(0)
        self.wait_ready(0)
        for index in range(1, self.workers):
            self.spawn(index)
        for index in range(1, self.workers):
            self.wait_ready(index)
        # Every worker holds its own REUSEPORT listener now; the
        # port-pinning placeholder would otherwise black-hole a share of
        # incoming connections (bound, never accepting).
        self._placeholder.close()
        self._placeholder = None
        # The manifest first: whoever sees the ready file can read it.
        self.write_manifests()
        if self.ready_file:
            replace_file(self.ready_file, f"{self.host} {self.port}\n")

    def request_stop(self, *_args: Any) -> None:
        self._stop = True

    def supervise(self) -> int:
        """Watch the children; returns the fleet's exit code."""
        while not self._stop:
            sentinels = {
                process.sentinel: index for index, process in self.procs.items()
            }
            for sentinel in multiprocessing.connection.wait(
                list(sentinels), timeout=0.2
            ):
                index = sentinels[sentinel]
                process = self.procs[index]
                process.join()
                if self._stop:
                    continue
                if index == 0:
                    print(
                        f"[serve] writer worker died (exit {process.exitcode}); "
                        "failing the fleet loudly",
                        file=sys.stderr,
                        flush=True,
                    )
                    return 1
                self.respawns[index] = self.respawns.get(index, 0) + 1
                if self.respawns[index] > MAX_RESPAWNS:
                    print(
                        f"[serve] reader worker {index} died "
                        f"{self.respawns[index]} times; giving up",
                        file=sys.stderr,
                        flush=True,
                    )
                    return 1
                print(
                    f"[serve] reader worker {index} died "
                    f"(exit {process.exitcode}); respawning",
                    file=sys.stderr,
                    flush=True,
                )
                try:
                    self.spawn(index)
                    self.wait_ready(index)
                except RuntimeError as exc:
                    print(f"[serve] respawn failed: {exc}", file=sys.stderr)
                    return 1
                self.write_manifests()
        return 0

    def shutdown(self) -> None:
        for process in self.procs.values():
            if process.exitcode is None:
                with contextlib.suppress(ProcessLookupError, OSError):
                    process.terminate()
        deadline = time.monotonic() + 10
        for process in self.procs.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.exitcode is None:
                process.kill()
                process.join()
        for ready in self._ready.values():
            os.close(ready)
        with contextlib.suppress(OSError):
            os.close(self._lifeline_w)
        with contextlib.suppress(OSError):
            os.close(self._lifeline_r)
        if self._placeholder is not None:
            self._placeholder.close()
        with contextlib.suppress(OSError):
            import shutil

            shutil.rmtree(self.tmpdir, ignore_errors=True)


def run_worker_fleet(
    config: ServiceConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    ready_file: Optional[str] = None,
) -> int:
    """``repro serve --workers N``: boot, supervise, tear down.

    Returns the process exit code: 0 on a clean (signal-requested)
    shutdown, 1 when the writer died or a reader could not be kept
    alive — the fleet never limps along without its mutation path.
    """
    supervisor = _Supervisor(
        config, host=host, port=port, workers=workers, ready_file=ready_file
    )
    try:
        supervisor.start_fleet()
    except Exception as exc:  # noqa: BLE001 - boot is all-or-nothing
        print(f"[serve] worker fleet failed to boot: {exc}", file=sys.stderr)
        supervisor.shutdown()
        return 1
    print(
        f"[serve] {len(config.schemes)} schemes on {config.server_count} "
        f"servers, listening on {supervisor.host}:{supervisor.port} "
        f"with {workers} workers (SO_REUSEPORT, worker 0 writes)",
        flush=True,
    )
    previous = {
        signame: signal.signal(signame, supervisor.request_stop)
        for signame in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        code = supervisor.supervise()
    finally:
        for signame, handler in previous.items():
            signal.signal(signame, handler)
        supervisor.shutdown()
        print("[serve] stopped", flush=True)
    return code


__all__ = [
    "DELTA_HISTORY",
    "MAX_RESPAWNS",
    "DeltaApplier",
    "WriteForwarder",
    "WriterBus",
    "apply_delta",
    "compute_apply_delta",
    "load_snapshot",
    "run_worker_fleet",
    "snapshot_stores",
    "wire_envelope",
]
