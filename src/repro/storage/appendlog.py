"""Append-log storage backend: journaled mutations + snapshot-and-compact.

One :class:`AppendLogJournal` serves a whole process (all keys, all
hosted servers).  Every write is queued as records *before* the caller
observes its effects downstream (the writer fans out deltas only after
the journal write returns): its update record (see
:func:`~repro.core.storage.update_record`) — the very dict the worker
fleet's writer ships to its readers as the delta — then the strategy
state and RNG position it advanced to.  On cold start the
journal replays snapshot + surviving log files into a
:class:`RecoveredImage` which callers apply back onto a fresh cluster —
rebuilding dense interner index assignments and coverage bitmasks, and
with them the index-ordered entry lists, bit-identically to a
never-crashed process.

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
each lands there.  A server's
strategy scratch state is journaled in full the first time its slot
is, and after that as a ``patch``: the top-level keys that changed,
and the keys set or deleted one level down (Round-Robin's
``positions``).  The ``rng`` record packs the Mersenne-Twister words
as base64 of little-endian ``uint32``.  A fresh boot journals its
placement as one update record per key, diffed from empty stores.

Replay reads the journal's earlier spellings too, though nothing
writes them any more: per-entry ``add``/``drop``/``reset``/``clear``
store records, one record per line, the RNG as a JSON list of ints,
and snapshot schemas 1 and 2, whose stores are ``[id, payload]`` pair
lists where schema 3's are membership lists of indices.

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
replays in O(1) per index it names: the image holds each store as an
``index → payload`` dict.
"""

from __future__ import annotations

import base64
import contextlib
import copy
import errno
import json
import os
import pathlib
import random
import re
import struct
from dataclasses import dataclass, field
from itertools import starmap
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.core.entry import Entry
from repro.core.exceptions import ReproError
from repro.core.interning import EntryInterner
from repro.core.storage import held_entry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

PathLike = Union[str, pathlib.Path]

SNAPSHOT_SCHEMA = 3

#: Snapshot schemas :meth:`AppendLogJournal.load` reads; schema 1
#: spelled the RNG words as a JSON list of ints, and 1 and 2 each store
#: as ``[id, payload]`` pairs.
_READABLE_SCHEMAS = (1, 2, SNAPSHOT_SCHEMA)

#: Strategy scratch-state keys that are transient between operations
#: and must not be persisted (mirrors ``repro.cluster.snapshots``).
_TRANSIENT_STATE_KEYS = ("migrations",)

_LOG_NAME_RE = re.compile(r"^journal\.(\d{6})\.log$")

#: ``append`` flushes on its own once this many records are pending, so
#: a bulk placement cannot hold its whole journal in memory.
MAX_PENDING_RECORDS = 4096

_SCALARS = (int, str, float, bool, type(None))

#: Replay errors that mean a record is not one this journal writes.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)

_ABSENT = object()


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


def _pack_rng(state: Any) -> list:
    """``random.Random.getstate()`` → ``[version, words, gauss]``.

    ``words`` is the 625-word state (624 Mersenne-Twister words and the
    position) as base64 of fixed-width little-endian ``uint32`` — 3.3 KB
    where a JSON list of ints is 6.7 KB.
    """
    version, words, gauss = state
    packed = struct.pack(f"<{len(words)}I", *words)
    return [version, base64.b64encode(packed).decode("ascii"), gauss]


def _unpack_rng(state: Any) -> tuple:
    """Inverse of :func:`_pack_rng`; also reads the JSON list of ints."""
    words = state[1]
    if words.__class__ is str:
        raw = base64.b64decode(words)
        words = struct.unpack(f"<{len(raw) // 4}I", raw)
    return (state[0], tuple(words), state[2])


def _persistable_state(state: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in state.items() if k not in _TRANSIENT_STATE_KEYS}


def _detached(value: Any) -> Any:
    """A copy of a journaled payload that shares no container with it.

    The dedupe compares a live payload with this copy by ``==`` where
    it used to compare sorted-JSON texts.  The two agree for what a
    strategy keeps in ``server.state(key)`` and what ``params()``
    returns — str-keyed dicts, lists, ints, strs — because dict
    equality ignores key order just as ``sort_keys`` did.  (They part
    only where Python equates what JSON tells apart, ``1 == 1.0 ==
    True``, or the reverse, a tuple against a list; no strategy keeps
    either.)  Dicts and lists are walked by hand: ``copy.deepcopy`` of
    a Round-Robin ``positions`` map costs five times as much.
    """
    if value.__class__ is dict:
        out = value.copy()
        for key, item in value.items():
            if item.__class__ not in _SCALARS:
                out[key] = _detached(item)
        return out
    if value.__class__ is list:
        return [
            item if item.__class__ in _SCALARS else _detached(item)
            for item in value
        ]
    return copy.deepcopy(value)


def _copy(value: Any) -> Any:
    return value if value.__class__ in _SCALARS else _detached(value)


def _dict_catch_up(kept: Dict[Any, Any], new: Dict[Any, Any]) -> Dict[str, Any]:
    """Bring dict ``kept`` up to ``new`` in place; returns the ``set`` /
    ``del`` fields that did it, each in key order.
    """
    was = kept.get
    put = sorted((k, v) for k, v in new.items() if was(k, _ABSENT) != v)
    gone = sorted(k for k in kept if k not in new)
    fields: Dict[str, Any] = {}
    if put:
        fields["set"] = {k: _copy(v) for k, v in put}
        kept.update((k, _copy(v)) for k, v in put)
    if gone:
        fields["del"] = gone
        for k in gone:
            del kept[k]
    return fields


def _catch_up(kept: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
    """Bring the kept copy of a state up to ``new`` (transient keys
    aside) and return the ``patch`` record fields that did it; empty
    when nothing changed.

    ``set`` carries the top-level keys whose values changed, ``del``
    the ones that are gone, and ``sub`` — for a key that holds a dict
    on both sides — the same two fields one level down.  The fields
    and ``kept`` share no container.
    """
    put: Dict[str, Any] = {}
    nested: Dict[str, Any] = {}
    for name, value in new.items():
        if name in _TRANSIENT_STATE_KEYS:
            continue
        was = kept.get(name, _ABSENT)
        if was == value:
            continue
        if was.__class__ is dict and value.__class__ is dict:
            inner = _dict_catch_up(was, value)
            if inner:
                nested[name] = inner
        else:
            put[name] = _copy(value)
            kept[name] = _copy(value)
    gone = sorted(name for name in kept if name not in new)
    for name in gone:
        del kept[name]
    fields: Dict[str, Any] = {}
    if put:
        fields["set"] = put
    if gone:
        fields["del"] = gone
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


def _as_dict(items: Iterable[Any]) -> Dict[int, Any]:
    """A membership list (see :meth:`~repro.core.storage.StorageBackend
    .membership`) as an ``index → payload`` dict."""
    return dict((item, None) if item.__class__ is int else item for item in items)


def _membership(store: Any) -> list:
    """An image store as a membership list, ascending."""
    if store.__class__ is list:
        return store
    return [i if p is None else [i, p] for i, p in sorted(store.items())]


@dataclass
class RecoveredImage:
    """Everything a crashed process needs to become its former self.

    ``interners`` holds each key's entries in *dense index order* —
    interning them first guarantees every store rebuild re-derives
    identical bitmask bit positions, and so the never-crashed store's
    index-ordered list.  ``stores`` holds each server's entries as an
    ``index → payload`` dict, so every store record replays in O(1) per
    index it names; :meth:`snapshot_text` lists them ascending, as the
    store :func:`apply_image` rebuilds does.
    """

    interners: Dict[str, EntryInterner] = field(default_factory=dict)
    #: ``index → payload`` dicts — or, fresh from :func:`build_image` and
    #: good only for :meth:`snapshot_text`, membership lists.
    stores: Dict[str, Dict[int, Any]] = field(default_factory=dict)
    states: Dict[str, Dict[int, Dict[str, Any]]] = field(default_factory=dict)
    #: As journaled: :func:`_pack_rng`'s form, or a schema-1 JSON list.
    rng_state: Optional[list] = None
    epochs: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.interners and not self.stores and self.rng_state is None

    # -- record application -------------------------------------------------

    def _interner(self, key: str) -> EntryInterner:
        interner = self.interners.get(key)
        if interner is None:
            interner = self.interners[key] = EntryInterner()
        return interner

    def _store(self, key: str, server_id: Any) -> Dict[int, Any]:
        return self.stores.setdefault(key, {}).setdefault(int(server_id), {})

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the image: O(1) per index it
        names, whatever the store's size."""
        op = record["op"]
        if op == "delta":
            key = record["key"]
            # The interning step a reader applies the same record with.
            self._interner(key).extend(
                starmap(Entry, record.get("new", ())), record.get("base", 0)
            )
            for sid, change in record["servers"].items():
                store = self._store(key, sid)
                store.update(_as_dict(change.get("add", ())))
                for index in change.get("drop", ()):
                    store.pop(index, None)
        elif op == "add":  # "add" to "clear": the earlier per-entry spelling
            entry_id, payload = record["e"]
            index = self._interner(record["k"]).intern(Entry(entry_id, payload))
            if "i" in record and record["i"] != index:
                raise RecoveryError(
                    f"journal add for {entry_id!r} recorded dense index "
                    f"{record['i']} but replay assigned {index}"
                )
            self._store(record["k"], record["s"]).setdefault(index, payload)
        elif op == "drop":
            index = self._interner(record["k"]).index_of(record["id"])
            self._store(record["k"], record["s"]).pop(index, None)
        elif op == "reset":
            intern = self._interner(record["k"]).intern
            store: Dict[int, Any] = {}
            for entry_id, payload in record["entries"]:
                store.setdefault(intern(Entry(entry_id, payload)), payload)
            self.stores.setdefault(record["k"], {})[record["s"]] = store
        elif op == "clear":
            self.stores.setdefault(record["k"], {})[record["s"]] = {}
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

    # -- snapshot round-trip ------------------------------------------------

    def snapshot_text(self) -> str:
        """The snapshot's ``image`` object as JSON text: each interner as
        its ``[entry_id, payload]`` pairs, each store as its membership
        list."""
        return _dumps(
            {
                "interners": {key: i.pairs() for key, i in self.interners.items()},
                "stores": {
                    key: {sid: _membership(store) for sid, store in by_server.items()}
                    for key, by_server in self.stores.items()
                },
                "states": self.states,
                "rng": self.rng_state,
                "epochs": self.epochs,
                "params": self.params,
            }
        )

    @classmethod
    def from_snapshot(
        cls, image: Dict[str, Any], schema: int = SNAPSHOT_SCHEMA
    ) -> "RecoveredImage":
        out = cls(
            states={
                key: {int(sid): dict(state) for sid, state in by_server.items()}
                for key, by_server in image["states"].items()
            },
            rng_state=image.get("rng"),
            epochs=dict(image.get("epochs", {})),
            params={k: dict(v) for k, v in image.get("params", {}).items()},
        )
        for key, pairs in image["interners"].items():
            out._interner(key).extend(starmap(Entry, pairs))
        for key, by_server in image["stores"].items():
            index_of = out._interner(key).index_of
            out.stores[key] = {
                int(sid): _as_dict(items)
                if schema >= 3
                else {index_of(entry_id): payload for entry_id, payload in items}
                for sid, items in by_server.items()
            }
        return out


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
        #: Dedupe: the last *journaled* payload per slot — ``("state",
        #: key, server)``, ``"rng"``, ``"params"`` — as a private copy.
        self._journaled: Dict[Any, Any] = {}
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

    def record_state(self, key: str, server_id: int, state: Dict[str, Any]) -> None:
        """Journal a strategy scratch state: in full the first time its
        slot is journaled, then as a patch of what changed, if anything.

        The kept copy takes the same patch, so an unchanged state costs
        an ``==`` per top-level key and a changed one what changed.
        """
        if self.read_only:
            return
        slot = ("state", key, server_id)
        last = self._journaled.get(slot)
        if last is None:
            # A never-journaled slot reads as empty, so a state that was
            # always empty is never journaled.
            if not state:
                return
            payload = _persistable_state(state)
            if payload:
                self.append(
                    {"op": "state", "k": key, "s": server_id, "state": _detached(payload)}
                )
                self._journaled[slot] = _detached(payload)
            return
        patch = _catch_up(last, state)
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

    def load(self) -> RecoveredImage:
        """Replay snapshot + surviving logs into a recovered image.

        Also positions the journal's write serial after the newest log
        file, so subsequent appends continue the surviving history.
        """
        image = RecoveredImage()
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
            image = RecoveredImage.from_snapshot(snapshot["image"], snapshot["schema"])
        records = 0
        serials = [s for s in self._log_serials() if s >= snapshot_serial]
        for serial in serials:
            records += self._replay_file(self._log_path(serial), image)
        self._serial = max([snapshot_serial, 1] + serials)
        self.log_records = records
        # Seed the dedupe so the first post-recovery state/rng record is
        # only written if it actually differs.  Copies, not the image's
        # own dicts: ``apply_image`` hands those to the live servers.
        for key, by_server in image.states.items():
            for sid, state in by_server.items():
                self._journaled[("state", key, sid)] = _detached(state)
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

    def compact(self, image: RecoveredImage, epoch: int = 0) -> None:
        """Fold the live logs into ``snapshot.json`` and rotate.

        ``image`` must describe the *current* full state (see
        :func:`build_image`); ``epoch`` stamps the snapshot for the
        ``last_compaction_epoch`` capability/metric.
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
            fh.write(f'{_dumps(header)[:-1]},"image":{image.snapshot_text()}}}\n')
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


def build_image(
    cluster: "Cluster",
    epochs: Optional[Dict[str, int]] = None,
    params: Optional[Dict[str, Dict[str, Any]]] = None,
) -> RecoveredImage:
    """Capture a cluster's full durable state as a snapshot image.

    For :meth:`AppendLogJournal.compact`: the image shares the cluster's
    interners and holds each store as its membership list, so it can be
    written, not applied.
    """
    image = RecoveredImage()
    for server in cluster.servers:
        for key in server.keys():
            image.interners[key] = cluster.interner(key)
            image.stores.setdefault(key, {})[server.server_id] = server.store(
                key
            ).membership()
            state = _persistable_state(server.state(key))
            if state:
                image.states.setdefault(key, {})[server.server_id] = dict(state)
    image.rng_state = _pack_rng(cluster.rng.getstate())
    if epochs:
        image.epochs = dict(epochs)
    if params:
        image.params = {name: dict(p) for name, p in params.items()}
    return image


def apply_image(image: RecoveredImage, cluster: "Cluster") -> None:
    """Rebuild a fresh cluster's stores/state/RNG from an image.

    Interners are replayed first, each entry checked onto the index the
    image names (:meth:`~repro.core.interning.EntryInterner.extend`),
    so every store rebuild re-derives identical bit positions whichever
    server's entries are applied first.  A store is then rebuilt by
    index, taking the interner's own entry object wherever it holds the
    entry payload-free (:func:`~repro.core.storage.held_entry`).
    """
    for key, interner in image.interners.items():
        cluster.interner(key).extend(map(interner.entry_at, range(len(interner))))
    for key, by_server in image.stores.items():
        interner = cluster.interner(key)
        for server_id, store in by_server.items():
            target = cluster.server(server_id).store(key)
            for item in _membership(store):
                target.add_at(*held_entry(interner, item))
    for key, by_server in image.states.items():
        for server_id, state in by_server.items():
            cluster.server(server_id).state(key).update(state)
    if image.rng_state is not None:
        cluster.rng.setstate(_unpack_rng(image.rng_state))


__all__ = [
    "AppendLogJournal",
    "RecoveredImage",
    "RecoveryError",
    "apply_image",
    "build_image",
]
