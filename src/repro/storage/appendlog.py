"""Append-log storage backend: journaled mutations + snapshot-and-compact.

One :class:`AppendLogJournal` serves a whole process (all keys, all
hosted servers).  Every store mutation is appended as one JSON line to
the live log file *before* the caller observes the mutation's effects
downstream (the writer fans out deltas only after the journal write
returns).  On cold start the journal replays snapshot + surviving log
files into a :class:`RecoveredImage` which callers apply back onto a
fresh cluster — rebuilding ordered entry lists, dense interner index
assignments, and coverage bitmasks bit-identically to a never-crashed
process.

Durability model
----------------
``append`` serialises a record into a pending list; :meth:`flush` hands
the pending lines to the OS page cache in one ``write``, which survives
the *process* dying (SIGKILL) — the crash mode the chaos harness and
smoke tests exercise.  The barriers that flush are the end of the
service's mutation sync point (before the reply is built),
``record_epoch`` (before any reader sees the delta), the end of the
boot records, ``compact()``, ``close()`` and the ``log_bytes`` getter.
A mutation therefore reaches the file together with the ``state`` and
``rng`` it advanced to, or not at all: SIGKILL at any instant loses at
most the mutation that was never acknowledged.  (As far as one
``write(2)`` is atomic — the kernel may cut a multi-page write short on
a fatal signal — and up to :data:`MAX_PENDING_RECORDS` records: a
bulk placement is written in several chunks so the pending list stays
bounded.)  Surviving power loss additionally needs ``fsync=True`` (one
``os.fsync`` per barrier), which the service deliberately does not
default to; the paper's replication schemes already tolerate losing a
whole server.

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
resumes the exact random stream of the crashed one.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import pathlib
import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Union

from repro.core.entry import Entry
from repro.core.exceptions import ReproError
from repro.core.storage import MemoryBackend, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.cluster import Cluster

PathLike = Union[str, pathlib.Path]

SNAPSHOT_SCHEMA = 1

#: Strategy scratch-state keys that are transient between operations
#: and must not be persisted (mirrors ``repro.cluster.snapshots``).
_TRANSIENT_STATE_KEYS = ("migrations",)

_LOG_NAME_RE = re.compile(r"^journal\.(\d{6})\.log$")

#: ``append`` flushes on its own once this many lines are pending, so a
#: bulk placement cannot hold its whole journal in memory.
MAX_PENDING_RECORDS = 4096

_SCALARS = (int, str, float, bool, type(None))


def _dumps(value: Any) -> str:
    """The one JSON spelling journal lines and snapshots are written in."""
    return json.dumps(value, separators=(",", ":"))


def _pair_json(entry_id: str) -> str:
    """A payload-free entry's ``[id, payload]`` snapshot pair, as text.

    The snapshot's fragment encoder (see
    :meth:`~repro.core.interning.EntryInterner.fragments`).
    """
    return _dumps([entry_id, None])


class RecoveryError(ReproError):
    """The journal's contents contradict themselves during replay.

    A *torn tail* (a final line cut short by the crash) is expected and
    silently dropped; an interner index recorded for an ``add`` that
    disagrees with replay order is not — it means the journal and the
    recovery procedure no longer describe the same history.
    """


def _rng_to_jsonable(state: Any) -> list:
    """``random.Random.getstate()`` → JSON-safe nested lists."""
    return [state[0], list(state[1]), state[2]]


def _rng_from_jsonable(state: Any) -> tuple:
    """Inverse of :func:`_rng_to_jsonable`."""
    return (state[0], tuple(state[1]), state[2])


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


@dataclass
class RecoveredImage:
    """Everything a crashed process needs to become its former self.

    ``interners`` lists ``[entry_id, payload]`` pairs in *dense index
    order* — replaying them first guarantees every store rebuild
    re-derives identical bitmask bit positions.  ``stores`` lists each
    server's entries in insertion order, which is what makes sampling
    with a restored RNG byte-identical.
    """

    interners: Dict[str, List[List[Any]]] = field(default_factory=dict)
    #: Pair lists — or, fresh from :func:`build_image` and good only
    #: for :meth:`snapshot_text`, each list's JSON text (a ``str``).
    stores: Dict[str, Dict[int, List[List[Any]]]] = field(default_factory=dict)
    states: Dict[str, Dict[int, Dict[str, Any]]] = field(default_factory=dict)
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

    def _store(self, key: str, server_id: int) -> List[List[Any]]:
        return self.stores.setdefault(key, {}).setdefault(server_id, [])

    def apply(self, record: Dict[str, Any]) -> None:
        """Fold one journal record into the image."""
        op = record["op"]
        if op == "add":
            index = self._intern(record["k"], record["e"][0], record["e"][1])
            if "i" in record and record["i"] != index:
                raise RecoveryError(
                    f"journal add for {record['e'][0]!r} recorded dense index "
                    f"{record['i']} but replay assigned {index}"
                )
            store = self._store(record["k"], record["s"])
            if all(pair[0] != record["e"][0] for pair in store):
                store.append(list(record["e"]))
        elif op == "drop":
            store = self._store(record["k"], record["s"])
            for position, pair in enumerate(store):
                if pair[0] == record["id"]:
                    store.pop(position)
                    break
        elif op == "swap":
            index = self._intern(record["k"], record["e"][0], record["e"][1])
            if "i" in record and record["i"] != index:
                raise RecoveryError(
                    f"journal swap for {record['e'][0]!r} recorded dense index "
                    f"{record['i']} but replay assigned {index}"
                )
            store = self._store(record["k"], record["s"])
            for position, pair in enumerate(store):
                if pair[0] == record["old"]:
                    store[position] = list(record["e"])
                    break
        elif op == "reset":
            for entry_id, payload in record["entries"]:
                self._intern(record["k"], entry_id, payload)
            self.stores.setdefault(record["k"], {})[record["s"]] = [
                list(pair) for pair in record["entries"]
            ]
        elif op == "clear":
            self.stores.setdefault(record["k"], {})[record["s"]] = []
        elif op == "state":
            self.states.setdefault(record["k"], {})[record["s"]] = record["state"]
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
        whole nested dict would give.
        """
        stores = ",".join(
            _dumps(key)
            + ":{"
            + ",".join(
                f'"{sid}":' + (pairs if isinstance(pairs, str) else _dumps(pairs))
                for sid, pairs in by_server.items()
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
                key: {
                    int(sid): [list(p) for p in pairs]
                    for sid, pairs in by_server.items()
                }
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
    """JSON-lines mutation journal with serial-rotated compaction.

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
        self.log_records = 0
        self.compactions = 0
        self.last_compaction_epoch = 0
        self._serial = 1
        self._fh: Optional[Any] = None
        self._records_since_compact = 0
        #: Serialised lines not yet handed to the OS; see :meth:`flush`.
        self._pending: List[str] = []
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

        The store-record builders ask first, so a reader applying a
        delta and a recovery boot build no record just to drop it.
        """
        return not (self.read_only or self.replaying)

    def append(self, record: Dict[str, Any]) -> bool:
        """Queue one record for the next barrier; False when suppressed."""
        if not self.listening:
            return False
        self._pending.append(_dumps(record) + "\n")
        self.log_records += 1
        self._records_since_compact += 1
        if len(self._pending) >= MAX_PENDING_RECORDS:
            self.flush()
        return True

    def flush(self) -> None:
        """Barrier: hand every pending line to the OS in one ``write``."""
        if not self._pending:
            return
        if self._fh is None:
            self._fh = open(self._log_path(self._serial), "a", encoding="utf-8")
        self._fh.write("".join(self._pending))
        self._pending.clear()
        self._fh.flush()
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

    def record_replace(
        self, key: str, server_id: int, old_id: str, index: int, entry: Entry
    ) -> None:
        if not self.listening:
            return
        self.append(
            {
                "op": "swap",
                "k": key,
                "s": server_id,
                "old": old_id,
                "i": index,
                "e": [entry.entry_id, entry.payload],
            }
        )

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
        """Journal a strategy scratch state, skipping no-op rewrites."""
        slot = ("state", key, server_id)
        # A never-journaled slot reads as empty, so a state that was
        # always empty is never journaled.
        last = self._journaled.get(slot) or {}
        if not state and not last:
            return
        payload = _persistable_state(state)
        if payload == last:
            return
        if self.append({"op": "state", "k": key, "s": server_id, "state": payload}):
            self._journaled[slot] = _detached(payload)

    def record_rng(self, rng: random.Random) -> None:
        """Journal the cluster RNG state, skipping no-op rewrites."""
        state = rng.getstate()
        if state == self._journaled.get("rng"):
            return
        if self.append({"op": "rng", "state": _rng_to_jsonable(state)}):
            self._journaled["rng"] = state  # nested tuples: nothing to detach

    def record_epoch(self, key: str, epoch: int) -> None:
        """Journal a delta's epoch marker and flush: the fleet's barrier."""
        self.append({"op": "epoch", "k": key, "n": epoch})
        self.flush()

    def record_params(self, schemes: Dict[str, Dict[str, Any]]) -> None:
        """Journal effective strategy params, skipping no-op rewrites."""
        if schemes == self._journaled.get("params"):
            return
        if self.append({"op": "params", "schemes": schemes}):
            self._journaled["params"] = _detached(schemes)

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
            if snapshot.get("schema") != SNAPSHOT_SCHEMA:
                raise RecoveryError(
                    f"snapshot schema {snapshot.get('schema')!r} is not "
                    f"{SNAPSHOT_SCHEMA}"
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
            self._journaled["rng"] = _rng_from_jsonable(image.rng_state)
        if image.params:
            self._journaled["params"] = _detached(image.params)
        return image

    def _replay_file(self, path: pathlib.Path, image: RecoveredImage) -> int:
        records = 0
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return 0
        for line in text.split("\n"):
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # Torn tail: the crash cut a record short.  Everything
                # before it is intact; nothing after it can exist.
                break
            image.apply(record)
            records += 1
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
        # Pending lines belong to the history being folded: they land in
        # the old serial before it rotates away.
        self.flush()
        folded = [s for s in self._log_serials() if s <= self._serial]
        # (1) open the next serial's log so new records land past the
        # snapshot's coverage...
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._serial += 1
        self._fh = open(self._log_path(self._serial), "a", encoding="utf-8")
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
    same ordered lists, same bitmask — so the read path (sampling,
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
        if added:
            self._journal.record_add(
                self._key, self._server_id, self._indices[-1], entry
            )
        return added

    def discard(self, entry: Entry) -> bool:
        removed = super().discard(entry)
        if removed:
            self._journal.record_drop(self._key, self._server_id, entry.entry_id)
        return removed

    def replace(self, old: Entry, new: Entry) -> bool:
        swapped = super().replace(old, new)
        if swapped:
            self._journal.record_replace(
                self._key,
                self._server_id,
                old.entry_id,
                self._interner.index_of(new.entry_id),
                new,
            )
        return swapped

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
    image.rng_state = _rng_to_jsonable(cluster.rng.getstate())
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
                for entry_id, payload in pairs:
                    entry = shared.get(entry_id) if payload is None else None
                    store.add(Entry(entry_id, payload) if entry is None else entry)
        for key, by_server in image.states.items():
            for server_id, state in by_server.items():
                cluster.server(server_id).state(key).update(state)
        if image.rng_state is not None:
            cluster.rng.setstate(_rng_from_jsonable(image.rng_state))


__all__ = [
    "AppendLogJournal",
    "LogBackend",
    "RecoveredImage",
    "RecoveryError",
    "apply_image",
    "build_image",
]
