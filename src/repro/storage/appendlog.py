"""Append-log storage backend: journaled mutations + snapshot-and-compact.

One :class:`AppendLogJournal` serves a whole process (all keys, all
hosted servers).  Every store mutation is queued as a record *before*
the caller observes the mutation's effects downstream (the writer fans
out deltas only after the journal write returns).  On cold start the
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
A client mutation is therefore one line — its store records and the
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

A record is sized by what the write touched.  A server's strategy
scratch state is journaled in full the first time its slot is, and
after that as a ``patch``: the top-level keys that changed, and the
keys set or deleted one level down (Round-Robin's ``positions``).  The
``rng`` record packs the Mersenne-Twister words as base64 of
little-endian ``uint32``.  Replay reads the journal's earlier spelling
too — one record per line, the RNG as a JSON list of ints, snapshot
schema 1.

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
Randomized mutations journal their *outcome*, not their inputs:
``pop_random`` appends the popped entry's id as a plain ``drop``
record, so replay never consumes RNG.  The cluster RNG's state is
journaled separately (``rng`` records, deduped) so a recovered process
resumes the exact random stream of the crashed one.  Every record
replays in O(1): the image holds each store as an ``id → payload``
dict.
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
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.core.entry import Entry
from repro.core.exceptions import ReproError
from repro.core.storage import MemoryBackend, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

PathLike = Union[str, pathlib.Path]

SNAPSHOT_SCHEMA = 2

#: Snapshot schemas :meth:`AppendLogJournal.load` reads; schema 1
#: spelled the RNG words as a JSON list of ints.
_READABLE_SCHEMAS = (1, SNAPSHOT_SCHEMA)

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


def _pair_json(entry_id: str) -> str:
    """A payload-free entry's ``[id, payload]`` snapshot pair, as text.

    The snapshot's fragment encoder (see
    :meth:`~repro.core.interning.EntryInterner.fragments`).
    """
    return _dumps([entry_id, None])


class RecoveryError(ReproError):
    """The journal's contents contradict themselves during replay.

    A *torn tail* (a file's last line cut short by the crash) is
    expected and silently dropped; a damaged line before it, a record
    this journal does not write, or an interner index recorded for an
    ``add`` that disagrees with replay order is not — it means the
    journal and the recovery procedure no longer describe the same
    history.
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


@dataclass
class RecoveredImage:
    """Everything a crashed process needs to become its former self.

    ``interners`` lists ``[entry_id, payload]`` pairs in *dense index
    order* — replaying them first guarantees every store rebuild
    re-derives identical bitmask bit positions, and so the never-crashed
    store's index-ordered list.  ``stores`` holds each server's entries
    as an ``id → payload`` dict, so every store record replays in one
    dict operation; :meth:`snapshot_text` lists them in dense index
    order, as the store :func:`apply_image` rebuilds does.
    """

    interners: Dict[str, List[List[Any]]] = field(default_factory=dict)
    #: ``id → payload`` dicts — or, fresh from :func:`build_image` and
    #: good only for :meth:`snapshot_text`, each store's pair-list JSON
    #: text (a ``str``).
    stores: Dict[str, Dict[int, Any]] = field(default_factory=dict)
    states: Dict[str, Dict[int, Dict[str, Any]]] = field(default_factory=dict)
    #: As journaled: :func:`_pack_rng`'s form, or a schema-1 JSON list.
    rng_state: Optional[list] = None
    epochs: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # Per-key id → index maps, derived; not part of the snapshot.
    _index_by_id: Dict[str, Dict[str, int]] = field(default_factory=dict, repr=False)

    def is_empty(self) -> bool:
        return not self.interners and not self.stores and self.rng_state is None

    # -- record application -------------------------------------------------

    def _intern(self, key: str, entry_id: str, payload: Any) -> int:
        by_id = self._index_by_id.setdefault(key, {})
        index = by_id.get(entry_id)
        if index is None:
            order = self.interners.setdefault(key, [])
            index = len(order)
            by_id[entry_id] = index
            order.append([entry_id, payload])
        return index

    def _store(self, key: str, server_id: int) -> Dict[str, Any]:
        return self.stores.setdefault(key, {}).setdefault(server_id, {})

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the image: one dict operation for
        a store record, whatever the store's size."""
        op = record["op"]
        if op == "add":
            entry_id, payload = record["e"]
            index = self._intern(record["k"], entry_id, payload)
            if "i" in record and record["i"] != index:
                raise RecoveryError(
                    f"journal add for {entry_id!r} recorded dense index "
                    f"{record['i']} but replay assigned {index}"
                )
            self._store(record["k"], record["s"]).setdefault(entry_id, payload)
        elif op == "drop":
            self._store(record["k"], record["s"]).pop(record["id"], None)
        elif op == "reset":
            store: Dict[str, Any] = {}
            for entry_id, payload in record["entries"]:
                self._intern(record["k"], entry_id, payload)
                store.setdefault(entry_id, payload)
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
        """The snapshot's ``image`` object as JSON text.

        Spelled section by section so the stores — most of the bytes —
        can arrive already serialised; every other value goes through
        :func:`_dumps`, and the result is what one ``_dumps`` of the
        whole nested dict would give, with each store as a pair list
        in dense index order.
        """

        def store_text(key: str, pairs: Any) -> str:
            if pairs.__class__ is str:
                return pairs
            if pairs.__class__ is dict:
                index = self._index_by_id.get(key, {}).__getitem__
                pairs = [[i, pairs[i]] for i in sorted(pairs, key=index)]
            return _dumps(pairs)

        stores = ",".join(
            _dumps(key)
            + ":{"
            + ",".join(
                f'"{sid}":' + store_text(key, pairs) for sid, pairs in by_server.items()
            )
            + "}"
            for key, by_server in self.stores.items()
        )
        sections = {
            "interners": _dumps(self.interners),
            "stores": "{" + stores + "}",
            "states": _dumps(
                {
                    key: {str(sid): state for sid, state in by_server.items()}
                    for key, by_server in self.states.items()
                }
            ),
            "rng": _dumps(self.rng_state),
            "epochs": _dumps(self.epochs),
            "params": _dumps(self.params),
        }
        return "{" + ",".join(f'"{name}":{text}' for name, text in sections.items()) + "}"

    @classmethod
    def from_snapshot(cls, image: Dict[str, Any]) -> "RecoveredImage":
        out = cls(
            interners={k: [list(p) for p in v] for k, v in image["interners"].items()},
            stores={
                key: {int(sid): dict(pairs) for sid, pairs in by_server.items()}
                for key, by_server in image["stores"].items()
            },
            states={
                key: {int(sid): dict(state) for sid, state in by_server.items()}
                for key, by_server in image["states"].items()
            },
            rng_state=image.get("rng"),
            epochs=dict(image.get("epochs", {})),
            params={k: dict(v) for k, v in image.get("params", {}).items()},
        )
        for key, order in out.interners.items():
            out._index_by_id[key] = {pair[0]: i for i, pair in enumerate(order)}
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
        #: While True, ``append`` is suppressed — set during replay so
        #: rebuilding stores does not re-journal its own history.
        self.replaying = False
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

    @contextlib.contextmanager
    def suspended(self):
        """Temporarily suppress journaling (used while applying replay)."""
        previous = self.replaying
        self.replaying = True
        try:
            yield
        finally:
            self.replaying = previous

    @property
    def listening(self) -> bool:
        """Whether ``append`` would write: neither read-only nor replaying.

        The record builders ask first, so a reader applying a delta and
        a recovery boot build no record just to drop it.
        """
        return not (self.read_only or self.replaying)

    def append(self, record: Dict[str, Any]) -> bool:
        """Queue one record for the next barrier; False when suppressed.

        The record is serialised at the barrier, so it must not share a
        container that changes before then: the builders below hand in
        fresh values.
        """
        if not self.listening:
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

    def record_add(self, key: str, server_id: int, index: int, entry: Entry) -> None:
        if not self.listening:
            return
        self.append(
            {
                "op": "add",
                "k": key,
                "s": server_id,
                "i": index,
                "e": [entry.entry_id, entry.payload],
            }
        )

    def record_drop(self, key: str, server_id: int, entry_id: str) -> None:
        if not self.listening:
            return
        self.append({"op": "drop", "k": key, "s": server_id, "id": entry_id})

    def record_reset(
        self, key: str, server_id: int, entries: Iterable[Entry]
    ) -> None:
        if not self.listening:
            return
        self.append(
            {
                "op": "reset",
                "k": key,
                "s": server_id,
                "entries": [[e.entry_id, e.payload] for e in entries],
            }
        )

    def record_clear(self, key: str, server_id: int) -> None:
        if not self.listening:
            return
        self.append({"op": "clear", "k": key, "s": server_id})

    def record_state(self, key: str, server_id: int, state: Dict[str, Any]) -> None:
        """Journal a strategy scratch state: in full the first time its
        slot is journaled, then as a patch of what changed, if anything.

        The kept copy takes the same patch, so an unchanged state costs
        an ``==`` per top-level key and a changed one what changed.
        """
        if not self.listening:
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
        if not self.listening:
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
        if not self.listening or schemes == self._journaled.get("params"):
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
            image = RecoveredImage.from_snapshot(snapshot["image"])
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


class LogBackend(MemoryBackend):
    """The in-memory backend with every mutation journaled.

    Representation-identical to :class:`MemoryBackend` — same slots,
    same index-ordered lists, same bitmask — so the read path (sampling,
    membership, the bitset kernel's ``_indices`` access) costs exactly
    the same.  Each mutator delegates to ``super()`` first and journals
    only mutations that actually happened, recording *outcomes* (the
    popped entry's id, the assigned dense index) so replay is
    deterministic and RNG-free.
    """

    __slots__ = ("_journal", "_key", "_server_id")

    def __init__(
        self,
        journal: AppendLogJournal,
        key: str,
        server_id: int,
        interner=None,
    ) -> None:
        self._journal = journal
        self._key = key
        self._server_id = server_id
        super().__init__(interner=interner)

    def add(self, entry: Entry) -> bool:
        added = super().add(entry)
        if added and self._journal.listening:
            self._journal.record_add(
                self._key,
                self._server_id,
                self._interner.index_of(entry.entry_id),
                entry,
            )
        return added

    def discard(self, entry: Entry) -> bool:
        removed = super().discard(entry)
        if removed:
            self._journal.record_drop(self._key, self._server_id, entry.entry_id)
        return removed

    def pop_random(self, rng: random.Random) -> Entry:
        entry = super().pop_random(rng)
        self._journal.record_drop(self._key, self._server_id, entry.entry_id)
        return entry

    def clear(self) -> None:
        had_entries = len(self._entries) > 0
        super().clear()
        if had_entries:
            self._journal.record_clear(self._key, self._server_id)

    def restore(self, entries: Iterable[Entry]) -> None:
        """Replace contents, journaled as one ``reset`` record."""
        entries = list(entries)
        with self._journal.suspended():
            super().restore(entries)
        self._journal.record_reset(self._key, self._server_id, entries)


def _store_json(store: StorageBackend) -> str:
    """A store's snapshot pair list as text, joined from fragments."""
    parts = store.fragments(_pair_json)
    if parts is None:
        # A rider: payloads belong to held entries, not to indices.
        return _dumps([[e.entry_id, e.payload] for e in store])
    return "[" + ",".join(parts) + "]"


def build_image(
    cluster: "Cluster",
    epochs: Optional[Dict[str, int]] = None,
    params: Optional[Dict[str, Dict[str, Any]]] = None,
) -> RecoveredImage:
    """Capture a cluster's full durable state as a snapshot image.

    For :meth:`AppendLogJournal.compact`: the stores are captured as
    JSON text (see :func:`_store_json`), so the image can be written,
    not applied.
    """
    image = RecoveredImage()
    keys: List[str] = []
    for server in cluster.servers:
        for key in server.keys():
            if key not in keys:
                keys.append(key)
    for key in keys:
        interner = cluster.interner(key)
        order = [interner.entry_at(i) for i in range(len(interner))]
        image.interners[key] = [[e.entry_id, e.payload] for e in order]
    for server in cluster.servers:
        for key in server.keys():
            image.stores.setdefault(key, {})[server.server_id] = _store_json(
                server.store(key)
            )
            state = _persistable_state(server.state(key))
            if state:
                image.states.setdefault(key, {})[server.server_id] = dict(state)
    image.rng_state = _pack_rng(cluster.rng.getstate())
    if epochs:
        image.epochs = dict(epochs)
    if params:
        image.params = {name: dict(p) for name, p in params.items()}
    return image


def apply_image(
    image: RecoveredImage,
    cluster: "Cluster",
    journal: Optional[AppendLogJournal] = None,
) -> None:
    """Rebuild a fresh cluster's stores/state/RNG from an image.

    Interners are replayed first, in recorded dense-index order, so
    every store rebuild re-derives identical bit positions regardless
    of which server's entries are applied first; a store then takes
    the interner's own entry object wherever its pair is payload-free.
    Journaling is suspended while applying so recovery does not
    re-journal itself.
    """
    suspend = journal.suspended() if journal is not None else contextlib.nullcontext()
    with suspend:
        for key, order in image.interners.items():
            interner = cluster.interner(key)
            for entry_id, payload in order:
                interner.intern(Entry(entry_id, payload))
        for key, by_server in image.stores.items():
            # Every store that holds an entry payload-free shares the
            # interner's one object for it.
            interner = cluster.interner(key)
            shared = {
                entry.entry_id: entry
                for entry in map(interner.entry_at, range(len(interner)))
                if entry.payload is None
            }
            for server_id, pairs in by_server.items():
                store = cluster.server(server_id).store(key)
                for entry_id, payload in pairs.items():
                    entry = shared.get(entry_id) if payload is None else None
                    store.add(Entry(entry_id, payload) if entry is None else entry)
        for key, by_server in image.states.items():
            for server_id, state in by_server.items():
                cluster.server(server_id).state(key).update(state)
        if image.rng_state is not None:
            cluster.rng.setstate(_unpack_rng(image.rng_state))


__all__ = [
    "AppendLogJournal",
    "LogBackend",
    "RecoveredImage",
    "RecoveryError",
    "apply_image",
    "build_image",
]
