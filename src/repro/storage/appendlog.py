"""Append-log storage backend: journaled mutations + snapshot-and-compact.

One :class:`AppendLogJournal` serves a whole process (all keys, all
hosted servers).  Every write is queued as records *before* the caller
observes its effects downstream (the writer fans out deltas only after
the journal write returns): its update record (see
:func:`~repro.core.storage.update_record`) — the very dict the worker
fleet's writer ships to its readers as the delta — then the strategy
state and RNG position it advanced to.  On cold start the
journal replays snapshot + surviving log files straight into a fresh
cluster's stores (:meth:`AppendLogJournal.load` with the cluster), each
record applied once, rebuilding dense interner index assignments and
coverage bitmasks, and with them the index-ordered entry lists,
bit-identically to a never-crashed process.  The
:class:`RecoveredImage` it returns — a
:class:`~repro.cluster.snapshots.ClusterImage` — carries the rest; with
no cluster given, its records describe the recovered stores too.

Durability model
----------------
``append`` queues a record; :meth:`flush` is the barrier: everything
queued since the last one becomes **one line**, a JSON array of the
records, written with one ``dumps`` and one ``write`` to the OS page
cache, which survives the *process* dying (SIGKILL) — the crash mode
the chaos harness and smoke tests exercise.  The barriers are the end
of the service's mutation sync point (before the reply is built),
``record_epoch`` (before any reader sees the delta), the end of the
boot records, ``compact()``, ``close()`` and the ``log_bytes`` getter.
A client mutation is therefore one line — its update record and the
``state`` and ``rng`` it advanced to — and the fleet's ``epoch``
marker a line of its own.  Replay applies a line whole or not at all:
a line the crash cut short is dropped with every record in it, so
SIGKILL at any instant loses at most the mutation that was never
acknowledged.  (A bulk placement is written in lines of at most
:data:`MAX_PENDING_RECORDS` records, so the queue stays bounded.)
Only a file's last line can be torn.  Replay drops it, and a writable
journal truncates the file back to its last whole line before it
appends, so a restarted writer's first line never fuses with the
fragment; a damaged line anywhere else is a :class:`RecoveryError`.
Surviving power loss additionally needs ``fsync=True`` (one
``os.fsync`` per barrier), which the service deliberately does not
default to; the paper's replication schemes already tolerate losing a
whole server.

A record is sized by what the write touched.  The update record (op
``delta``) lists, per server whose store moved, the dense indices it
gained (a swapped payload included) and lost, and the entries the
write interned, with the index the first one got; replay checks that
each lands there.  A server's strategy scratch state is journaled in
full the first time its slot is, and after that as a ``patch`` of what
the write's handlers set through
:meth:`~repro.cluster.server.Server.set_state`: the top-level keys it
changed, and the keys it set or deleted one level down (Round-Robin's
``positions``); the journal keeps no copy of any state.  The ``rng``
record packs the Mersenne-Twister words as base64 of little-endian
``uint32``.  A fresh boot journals its placement as one update record
per key, diffed from empty stores.

Replay reads the journal's earlier spellings too, though nothing
writes them any more: per-entry ``add``/``drop``/``reset``/``clear``
store records, one record per line, the RNG as a JSON list of ints,
and snapshot schemas 1 and 2, whose stores are ``[id, payload]`` pair
lists where schema 3's are the update records' ``add`` lists
(:meth:`~repro.cluster.snapshots.ClusterImage.to_json`).

Compaction
----------
Logs rotate by serial: the live log is ``journal.<serial>.log`` and a
snapshot stamped with serial ``t`` folds in every file with serial
``< t``.  ``compact()`` (1) opens the next serial's empty log, (2)
atomically replaces ``snapshot.json`` via a temp file + ``os.replace``,
(3) unlinks the folded logs.  A crash between any two steps is safe:
replay applies the snapshot, then every log file with serial ``>=`` the
snapshot's, in order — stale lower-serial files are ignored and swept
on the next compaction.

Replay determinism
------------------
Randomized mutations journal their *outcome*, not their inputs: an
update record is a mask diff, so a ``pop_random`` is in it as a
dropped index and replay never consumes RNG.  The cluster RNG's state
is journaled separately (``rng`` records, deduped) so a recovered
process resumes the exact random stream of the crashed one.  A record
replays as :func:`~repro.core.storage.apply_record` applies it, by
dense index, with no id resolved.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import pathlib
import random
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.entry import Entry
from repro.core.exceptions import ReproError
from repro.core.interning import EntryInterner
from repro.core.storage import MemoryBackend, apply_record
from repro.cluster.cluster import Cluster
from repro.cluster.snapshots import (
    ClusterImage,
    _detached,
    _pack_rng,
    _persistable_state,
    _unpack_rng,
    apply_scratch,
    indexed_stores,
    store_records,
)

PathLike = Union[str, pathlib.Path]

SNAPSHOT_SCHEMA = 3

#: Snapshot schemas :meth:`AppendLogJournal.load` reads; schema 1
#: spelled the RNG words as a JSON list of ints, and 1 and 2 each store
#: as ``[id, payload]`` pairs.
_READABLE_SCHEMAS = (1, 2, SNAPSHOT_SCHEMA)

_LOG_NAME_RE = re.compile(r"^journal\.(\d{6})\.log$")

#: ``append`` flushes on its own once this many records are pending, so
#: a bulk placement cannot hold its whole journal in memory.
MAX_PENDING_RECORDS = 4096

#: Replay errors that mean a record is not one this journal writes.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)

#: The one JSON spelling journal lines and snapshots are written in:
#: what ``json.dumps(value, separators=(",", ":"))`` gives, without
#: building the encoder per call.
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class RecoveryError(ReproError):
    """The journal's contents contradict themselves during replay.

    A *torn tail* (a file's last line cut short by the crash) is
    expected and silently dropped; a damaged line before it, a record
    this journal does not write, or an entry interned at another index
    than its record names is not — it means the journal and the
    recovery procedure no longer describe the same history.
    """


def _item_changes(now: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """The ``set`` and ``del`` fields, keys sorted, that took the items
    ``before`` logged of one dict-valued key to their values in ``now``."""
    fields: Dict[str, Any] = {}
    put = {
        k: _detached(now[k]) for k in sorted(before) if k in now and now[k] != before[k]
    }
    gone = sorted(k for k, was in before.items() if was is not None and k not in now)
    if put:
        fields["set"] = put
    if gone:
        fields["del"] = gone
    return fields


def _patch(state: Dict[str, Any], before: Dict[Any, Any]) -> Dict[str, Any]:
    """The ``patch`` record fields that took ``state`` from the values a
    write logged (see :class:`~repro.cluster.server.StateLog`); empty
    when it set every slot back as it was.

    ``set`` the logged top-level keys whose value changed, in the
    state's order, ``del`` the ones that are gone, and ``sub`` the same
    two fields per dict-valued key the write changed item by item, keys
    sorted.  Only logged slots are read.
    """
    fields: Dict[str, Any] = {}
    put = {n: _detached(v) for n, v in state.items() if n in before and before[n] != v}
    if put:
        fields["set"] = put
    gone = []
    items: Dict[str, Dict[str, Any]] = {}
    for mark, was in before.items():
        if mark.__class__ is tuple:
            items.setdefault(mark[0], {})[mark[1]] = was
        elif was is not None and mark not in state:
            gone.append(mark)
    if gone:
        fields["del"] = sorted(gone)
    nested = {}
    if items:
        for name in state:
            if name in items and name not in before:
                inner = _item_changes(state[name], items[name])
                if inner:
                    nested[name] = inner
    if nested:
        fields["sub"] = nested
    return fields


def _merge(target: Dict[Any, Any], change: Dict[str, Any]) -> None:
    target.update(change.get("set", ()))
    for name in change.get("del", ()):
        target.pop(name, None)


def _apply_patch(state: Dict[str, Any], patch: Dict[str, Any]) -> None:
    """Fold a ``patch`` record into ``state``."""
    for name, inner in patch.get("sub", {}).items():
        _merge(state.setdefault(name, {}), inner)
    _merge(state, patch)


@dataclass
class RecoveredImage(ClusterImage):
    """A cluster image replayed from a journal into ``stores``: per key,
    the stores by server id — ``cluster``'s own when the replay has one,
    else a :class:`~repro.core.storage.MemoryBackend` per server a record
    names, over one interner.  A ``delta`` record is applied to them as a
    reader applies it, the earlier per-entry records by the store's own
    ``add``/``discard``/``clear``.  Once the replay ends,
    :meth:`AppendLogJournal.load` sets ``records`` from the stores, or,
    with a cluster, leaves them empty: the cluster's stores are the
    recovered ones."""

    stores: Dict[str, List[MemoryBackend]] = field(default_factory=dict)
    #: The cluster the replay lands in; None replays into stores of its own.
    cluster: Optional[Cluster] = None

    def _stores(self, key: str, server_ids: Any = ()) -> List[MemoryBackend]:
        """``key``'s stores, holding every id in ``server_ids``."""
        stores = self.stores.get(key)
        needed = max(map(int, server_ids), default=0) + 1
        if self.cluster is not None:
            if stores is None:
                stores = self.stores[key] = self.cluster.stores(key)
            if needed > len(stores):
                raise RecoveryError(
                    f"the journal names server {needed - 1} for {key!r}; "
                    f"the cluster has {len(stores)} servers"
                )
            return stores
        if stores is None:
            stores = self.stores[key] = []
        interner = stores[0].interner if stores else EntryInterner()
        stores.extend(MemoryBackend(interner=interner) for _ in range(len(stores), needed))
        return stores

    def _store(self, key: str, server_id: Any) -> MemoryBackend:
        return self._stores(key, (server_id,))[int(server_id)]

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the image."""
        op = record["op"]
        if op == "delta":
            apply_record(self._stores(record["key"], record["servers"]), record)
        elif op == "add":  # "add" to "clear": the earlier per-entry spelling
            store = self._store(record["k"], record["s"])
            entry = Entry(*record["e"])
            store.add(entry)
            index = store.interner.index_of(entry.entry_id)
            if record.get("i", index) != index:
                raise RecoveryError(
                    f"journal add for {entry.entry_id!r} recorded dense index "
                    f"{record['i']} but replay assigned {index}"
                )
        elif op == "drop":
            self._store(record["k"], record["s"]).discard(Entry(record["id"]))
        elif op == "reset":
            store = self._store(record["k"], record["s"])
            store.clear()
            for entry in record["entries"]:
                store.add(Entry(*entry))
        elif op == "clear":
            self._store(record["k"], record["s"]).clear()
        elif op == "state":
            self.states.setdefault(record["k"], {})[record["s"]] = record["state"]
        elif op == "patch":
            by_server = self.states.setdefault(record["k"], {})
            _apply_patch(by_server.setdefault(record["s"], {}), record)
        elif op == "rng":
            self.rng_state = record["state"]
        elif op == "epoch":
            key = record["k"]
            self.epochs[key] = max(self.epochs.get(key, 0), record["n"])
        elif op == "params":
            self.params.update(record["schemes"])
        else:
            raise RecoveryError(f"unknown journal record op {op!r}")

    def start_from(self, image: Dict[str, Any], schema: int = SNAPSHOT_SCHEMA) -> None:
        """Start the replay from a snapshot's ``image`` object."""
        if schema < 3:
            image = dict(image, stores=indexed_stores(image))
        start = ClusterImage.from_json(image)
        self.states, self.rng_state = start.states, start.rng_state
        self.epochs, self.params = start.epochs, start.params
        for record in start.records.values():
            self.apply(record)


class AppendLogJournal:
    """Mutation journal of one JSON-array line per barrier, with
    serial-rotated compaction.

    Parameters
    ----------
    data_dir:
        Directory holding ``journal.<serial>.log`` files and
        ``snapshot.json``.  Created on first write.
    read_only:
        A read-only journal never writes (``append`` is a no-op); used
        by reader workers that recover from the writer's journal.
    fsync:
        ``os.fsync`` at every :meth:`flush` barrier (power-loss
        durability); off by default — the ``write`` alone survives
        SIGKILL.
    compact_every:
        Auto-compact after this many records since the last compaction
        (see :meth:`maybe_compact`); ``0`` disables auto-compaction.
    """

    def __init__(
        self,
        data_dir: PathLike,
        read_only: bool = False,
        fsync: bool = False,
        compact_every: int = 0,
    ) -> None:
        self.data_dir = pathlib.Path(data_dir)
        self.read_only = read_only
        self.fsync = fsync
        self.compact_every = compact_every
        #: Records (not lines) since the last compaction.
        self.log_records = 0
        self.compactions = 0
        self.last_compaction_epoch = 0
        self._serial = 1
        self._fh: Optional[Any] = None
        self._records_since_compact = 0
        #: Records queued for the next barrier; see :meth:`flush`.
        self._pending: List[Dict[str, Any]] = []
        #: Dedupe: the last journaled RNG state and params.
        self._journaled: Dict[str, Any] = {}
        #: The ``(key, server)`` scratch states journaled in full, which
        #: a write then patches.
        self._state_slots: Set[Tuple[str, int]] = set()
        if not read_only:
            self.data_dir.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    @property
    def snapshot_path(self) -> pathlib.Path:
        return self.data_dir / "snapshot.json"

    def _log_path(self, serial: int) -> pathlib.Path:
        return self.data_dir / f"journal.{serial:06d}.log"

    def _log_serials(self) -> List[int]:
        if not self.data_dir.is_dir():
            return []
        serials = []
        for name in os.listdir(self.data_dir):
            match = _LOG_NAME_RE.match(name)
            if match:
                serials.append(int(match.group(1)))
        return sorted(serials)

    def has_data(self) -> bool:
        """True if a previous process left anything to recover."""
        if self.snapshot_path.exists():
            return True
        return any(
            self._log_path(serial).stat().st_size > 0
            for serial in self._log_serials()
        )

    @property
    def log_bytes(self) -> int:
        """Total size of the live (un-compacted) log files."""
        self.flush()
        total = 0
        for serial in self._log_serials():
            if serial >= self._serial:
                with contextlib.suppress(OSError):
                    total += self._log_path(serial).stat().st_size
        return total

    # -- writing -------------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> bool:
        """Queue one record for the next barrier; False when read-only.

        The record is serialised at the barrier, so it must not share a
        container that changes before then: the builders below hand in
        fresh values.
        """
        if self.read_only:
            return False
        self._pending.append(record)
        self.log_records += 1
        self._records_since_compact += 1
        if len(self._pending) >= MAX_PENDING_RECORDS:
            self.flush()
        return True

    def _open_log(self) -> Any:
        # Unbuffered: a failed write leaves no bytes behind in a buffer
        # for a later one to emit.
        return open(self._log_path(self._serial), "ab", buffering=0)

    def flush(self) -> None:
        """Barrier: every record queued since the last one, as one line
        in one ``write``.

        The records stay queued until the line is written whole: if the
        write fails (say ``ENOSPC``), whatever part of it landed is cut
        off again and the next barrier writes them all.
        """
        if not self._pending:
            return
        line = (_dumps(self._pending) + "\n").encode()
        if self._fh is None:
            self._fh = self._open_log()
        end = self._fh.tell()
        try:
            if self._fh.write(line) != len(line):
                raise OSError(errno.EIO, "short write to the journal")
        except BaseException:
            with contextlib.suppress(OSError):
                self._fh.truncate(end)
            raise
        self._pending = []
        if self.fsync:
            os.fsync(self._fh.fileno())

    def record_state(
        self, key: str, server_id: int, state: Dict[str, Any], before: Any = None
    ) -> None:
        """Journal a strategy scratch state: in full the first time its
        slot is journaled, then as a ``patch`` of what a write changed.

        ``before`` is the write's log for this state (see
        :class:`~repro.cluster.server.StateLog`): each slot the write
        set, with its value from before.  A patch reads those slots and
        nothing else, so it costs what the write changed, not what the
        state holds; with no log, a journaled state is left as it is.
        """
        if self.read_only:
            return
        slot = (key, server_id)
        if slot not in self._state_slots:
            # A never-journaled slot reads as empty, so a state that was
            # always empty is never journaled.
            payload = _persistable_state(state)
            if payload:
                self.append(
                    {"op": "state", "k": key, "s": server_id, "state": _detached(payload)}
                )
                self._state_slots.add(slot)
            return
        if before:
            patch = _patch(state, before)
            if patch:
                self.append({"op": "patch", "k": key, "s": server_id, **patch})

    def record_rng(self, rng: random.Random) -> None:
        """Journal the cluster RNG state, skipping no-op rewrites."""
        if self.read_only:
            return
        state = rng.getstate()
        last = self._journaled.get("rng")
        # Every draw moves the position (the last word); the 624 before
        # it change only when the generator refills, so test it first.
        if last is not None and state[1][-1] == last[1][-1] and state == last:
            return
        self.append({"op": "rng", "state": _pack_rng(state)})
        self._journaled["rng"] = state  # nested tuples: nothing to detach

    def record_epoch(self, key: str, epoch: int) -> None:
        """Journal a delta's epoch marker and flush: the fleet's barrier."""
        self.append({"op": "epoch", "k": key, "n": epoch})
        self.flush()

    def record_params(self, schemes: Dict[str, Dict[str, Any]]) -> None:
        """Journal effective strategy params, skipping no-op rewrites."""
        if self.read_only or schemes == self._journaled.get("params"):
            return
        # Never edited in place, so the record and the kept copy share it.
        kept = self._journaled["params"] = _detached(schemes)
        self.append({"op": "params", "schemes": kept})

    # -- reading -------------------------------------------------------------

    def load(self, cluster: Optional[Cluster] = None) -> RecoveredImage:
        """Replay snapshot + surviving logs into a recovered image.

        Given ``cluster`` (a fresh one: a recovery boot's), the replay
        lands in it: each store record is applied once, to the cluster's
        own stores, and the scratch states and RNG are set at the end;
        the image's ``records`` stay empty.  Without one, they describe
        the recovered stores.

        Also positions the journal's write serial after the newest log
        file, so subsequent appends continue the surviving history.
        """
        image = RecoveredImage(cluster=cluster)
        snapshot_serial = 0
        if self.snapshot_path.exists():
            snapshot = json.loads(self.snapshot_path.read_text())
            if snapshot.get("schema") not in _READABLE_SCHEMAS:
                raise RecoveryError(
                    f"snapshot schema {snapshot.get('schema')!r} is not one of "
                    f"{_READABLE_SCHEMAS}"
                )
            snapshot_serial = snapshot.get("serial", 0)
            self.compactions = snapshot.get("compactions", 0)
            self.last_compaction_epoch = snapshot.get("last_compaction_epoch", 0)
            image.start_from(snapshot["image"], snapshot["schema"])
        records = 0
        serials = [s for s in self._log_serials() if s >= snapshot_serial]
        for serial in serials:
            records += self._replay_file(self._log_path(serial), image)
        self._serial = max([snapshot_serial, 1] + serials)
        self.log_records = records
        if cluster is None:
            image.records = store_records(image.stores)
        else:
            apply_scratch(image, cluster)
        # Seed the dedupe: a recovered state is patched from here on, and
        # the first post-recovery rng record is only written if it differs.
        self._state_slots.update(
            (key, sid) for key, by_server in image.states.items() for sid in by_server
        )
        if image.rng_state is not None:
            self._journaled["rng"] = _unpack_rng(image.rng_state)
        if image.params:
            self._journaled["params"] = _detached(image.params)
        return image

    def _replay_file(self, path: pathlib.Path, image: RecoveredImage) -> int:
        """Fold one log file into ``image``; returns its record count.

        A line is one barrier: a JSON array of records, or one record as
        the journal wrote it before.  Only the last line can be torn: an
        unterminated one is ignored unread, and a terminated one that
        does not parse is dropped.  A writable journal then truncates
        the file back to its last whole line, where its next barrier
        starts.  A line that does not parse anywhere else, or holds a
        record this journal does not write, is a :class:`RecoveryError`.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return 0
        lines = data.split(b"\n")
        last = len(lines) - 2  # the last terminated line
        records = intact = 0
        apply = image.apply
        for number, line in enumerate(lines[:-1]):
            if line:
                try:
                    barrier = json.loads(line)
                except ValueError:
                    if number < last:
                        raise RecoveryError(
                            f"{path.name} line {number + 1} of {last + 1} is damaged;"
                            " only a file's last line may be torn.  In a journal"
                            " written one record per line it may be a torn record"
                            " fused with the first one a restarted writer appended:"
                            ' delete the line up to its last {"op": (see'
                            " docs/protocols.md §8)"
                        ) from None
                    break
                if barrier.__class__ is dict:
                    barrier = (barrier,)
                try:
                    for record in barrier:
                        apply(record)
                except _MALFORMED as exc:
                    raise RecoveryError(
                        f"{path.name} line {number + 1} holds a malformed record: {exc!r}"
                    ) from exc
                records += len(barrier)
            intact += len(line) + 1
        if intact < len(data) and not self.read_only:
            os.truncate(path, intact)
        return records

    # -- compaction ----------------------------------------------------------

    def compact(self, image: ClusterImage, epoch: int = 0) -> None:
        """Fold the live logs into ``snapshot.json`` and rotate.

        ``image`` must describe the *current* full state (see
        :func:`~repro.cluster.snapshots.capture_image`); ``epoch`` stamps
        the snapshot for the ``last_compaction_epoch`` capability/metric.
        """
        if self.read_only:
            return
        # Pending records belong to the history being folded: they land
        # in the old serial before it rotates away.
        self.flush()
        folded = [s for s in self._log_serials() if s <= self._serial]
        # (1) open the next serial's log so new records land past the
        # snapshot's coverage...
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._serial += 1
        self._fh = self._open_log()
        # (2) ...then publish the snapshot atomically...
        header = {
            "schema": SNAPSHOT_SCHEMA,
            "serial": self._serial,
            "compactions": self.compactions + 1,
            "last_compaction_epoch": epoch,
        }
        tmp = self.snapshot_path.with_name(self.snapshot_path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            # The image is the header dict's last member.
            fh.write(f'{_dumps(header)[:-1]},"image":{_dumps(image.to_json())}}}\n')
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, self.snapshot_path)
        # (3) ...and only then drop the folded logs.
        for serial in folded:
            with contextlib.suppress(OSError):
                self._log_path(serial).unlink()
        self.compactions += 1
        self.last_compaction_epoch = epoch
        self.log_records = 0
        self._records_since_compact = 0

    def should_compact(self) -> bool:
        return (
            not self.read_only
            and self.compact_every > 0
            and self._records_since_compact >= self.compact_every
        )

    # -- bookkeeping ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Capability/metric view of the journal."""
        return {
            "kind": "log",
            "data_dir": str(self.data_dir),
            "read_only": self.read_only,
            "log_records": self.log_records,
            "log_bytes": self.log_bytes,
            "compactions": self.compactions,
            "last_compaction_epoch": self.last_compaction_epoch,
        }

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None


__all__ = [
    "AppendLogJournal",
    "RecoveredImage",
    "RecoveryError",
]
