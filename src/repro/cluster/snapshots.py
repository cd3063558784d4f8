"""The cluster image: a cluster's whole state, captured and restored.

What a cluster stores for a key has one whole-state form: the *update
record from empty* (:func:`~repro.core.storage.update_record` with no
``before``) — the interner's every entry in index order, and each
server's membership by dense index, payloads included.  Those records,
with the servers' strategy scratch state, the cluster RNG, and a
service's writer-bus epochs and effective strategy params, are a
:class:`ClusterImage`.  :func:`capture_image` builds it and
:func:`apply_image` applies it, its records by
:func:`~repro.core.storage.apply_record` with ``replace``, for
:func:`snapshot_cluster` / :func:`restore_cluster` (and with them the
experiments' ``PlacementCache``), the append-log journal's compaction
and crash recovery (:mod:`repro.storage.appendlog`), and a fleet
reader's resync (:func:`repro.net.workers.snapshot_stores`, the
records alone).  A restored store holds the same entries, in the same
order, with the same payloads, so a seeded ``sample`` draws the same
answer.  Strategy *logics* are not part of the image: reattach one by
constructing it against the cluster with the same parameters.
"""

from __future__ import annotations

import base64
import copy
import json
import pathlib
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.core.exceptions import InvalidParameterError
from repro.core.storage import MemoryBackend, apply_record, update_record
from repro.cluster.cluster import Cluster

PathLike = Union[str, pathlib.Path]

#: Format 2 carries the image; format 1 listed each store's bare ids
#: in walk order, and still loads.
FORMAT_VERSION = 2
_READABLE_FORMATS = (1, FORMAT_VERSION)

#: Strategy scratch-state keys that are transient between operations
#: (Round-Robin's ``migrations``) and are never captured or journaled.
_TRANSIENT_STATE_KEYS = ("migrations",)

_SCALARS = (int, str, float, bool, type(None))


def _detached(value: Any) -> Any:
    """A copy of a state value that shares no container with it.

    Dicts and lists are walked by hand: ``copy.deepcopy`` of a
    Round-Robin ``positions`` map costs five times as much.  The journal
    compares a live state with its copy by ``==``, which for str-keyed
    dicts, lists, ints and strs agrees with comparing sorted-JSON texts.
    """
    if value.__class__ in _SCALARS:
        return value
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


def _persistable_state(state: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in state.items() if k not in _TRANSIENT_STATE_KEYS}


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


def store_records(stores: Mapping[str, Sequence[MemoryBackend]]) -> Dict[str, dict]:
    """Per key, the update record of everything its ``stores`` (listed
    by server id) hold: what applying it with ``replace`` rebuilds."""
    return {
        key: update_record(key, by_server) or {"op": "delta", "key": key, "servers": {}}
        for key, by_server in stores.items()
    }


@dataclass
class ClusterImage:
    """A cluster's whole state; see the module docstring.

    ``records`` are per key the update record from empty;
    ``states[key][server_id]`` a server's scratch state, transient keys
    aside; ``rng_state`` the cluster RNG as :func:`_pack_rng` packs it
    (or, from a schema-1 journal, a JSON list of ints; None leaves the
    RNG alone).
    """

    records: Dict[str, dict] = field(default_factory=dict)
    states: Dict[str, Dict[int, Dict[str, Any]]] = field(default_factory=dict)
    rng_state: Optional[list] = None
    epochs: Dict[str, int] = field(default_factory=dict)
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        """The records regrouped: each key's ``new`` as its interner,
        each server's ``add`` as its store."""
        records = self.records
        return {
            "interners": {key: r.get("new", []) for key, r in records.items()},
            "stores": {
                key: {sid: change["add"] for sid, change in r["servers"].items()}
                for key, r in records.items()
            },
            "states": self.states,
            "rng": self.rng_state,
            "epochs": self.epochs,
            "params": self.params,
        }

    @classmethod
    def from_json(cls, image: Dict[str, Any]) -> "ClusterImage":
        """Inverse of :meth:`to_json`."""
        return cls(
            records={
                key: {
                    "op": "delta", "key": key, "base": 0, "new": pairs,
                    "servers": {
                        sid: {"add": items} for sid, items in image["stores"][key].items()
                    },
                }
                for key, pairs in image["interners"].items()
            },
            states={
                key: {int(sid): state for sid, state in by_server.items()}
                for key, by_server in image["states"].items()
            },
            rng_state=image.get("rng"),
            epochs=image.get("epochs", {}),
            params=image.get("params", {}),
        )


def capture_image(
    cluster: Cluster,
    epochs: Optional[Dict[str, int]] = None,
    params: Optional[Dict[str, Dict[str, Any]]] = None,
) -> ClusterImage:
    """``cluster``'s whole state, sharing no state container with it."""
    states: Dict[str, Dict[int, Dict[str, Any]]] = {}
    for server in cluster.servers:
        for key in server.keys():
            state = _persistable_state(server.state(key))
            if state:
                states.setdefault(key, {})[server.server_id] = _detached(state)
    return ClusterImage(
        records=store_records(
            {key: cluster.stores(key) for server in cluster.servers for key in server.keys()}
        ),
        states=states,
        rng_state=_pack_rng(cluster.rng.getstate()),
        epochs=dict(epochs or {}),
        params={name: dict(p) for name, p in (params or {}).items()},
    )


def apply_image(image: ClusterImage, cluster: Cluster) -> None:
    """Rebuild ``cluster``'s stores, scratch state and RNG from ``image``.

    Each key's record is applied to its stores emptied first, every
    entry checked onto the index the record names, so a store the image
    was captured from and the one rebuilt list the same entries in the
    same order.  A state is copied in, so the image stays as it was.
    """
    for key, record in image.records.items():
        apply_record(cluster.stores(key), record, replace=True)
    apply_scratch(image, cluster)


def apply_scratch(image: ClusterImage, cluster: Cluster) -> None:
    """Set ``cluster``'s scratch states and RNG from ``image``, leaving
    its stores alone: the part of :func:`apply_image` a journal replay
    that landed in the cluster's stores still needs."""
    for key, by_server in image.states.items():
        for server_id, state in by_server.items():
            cluster.server(server_id).state(key).update(_detached(state))
    if image.rng_state is not None:
        cluster.rng.setstate(_unpack_rng(image.rng_state))


def snapshot_cluster(cluster: Cluster) -> Dict[str, Any]:
    """A JSON-serializable dump of ``cluster``: its image and which of
    its servers are up."""
    return {
        "format_version": FORMAT_VERSION,
        "size": cluster.size,
        "alive": [server.alive for server in cluster.servers],
        "image": capture_image(cluster).to_json(),
    }


def indexed_stores(image: Dict[str, Any]) -> Dict[str, Any]:
    """An image's stores spelled as ``[id, payload]`` pairs (format 1 and
    journal snapshot schemas 1 and 2) as membership lists, by the image's
    own interners."""
    out = {}
    for key, by_server in image["stores"].items():
        index = {pair[0]: i for i, pair in enumerate(image["interners"][key])}
        out[key] = {
            sid: [index[e] if p is None else [index[e], p] for e, p in items]
            for sid, items in by_server.items()
        }
    return out


def _as_format_2(snapshot: Dict[str, Any], size: int) -> Dict[str, Any]:
    """A format-1 snapshot — each store its bare ids, in walk order — in
    format 2, each key's ids interned in the order its restore met them."""
    interners: Dict[str, Dict[str, None]] = {}
    image: Dict[str, Any] = {"stores": {}, "states": {}}
    alive = [True] * size
    for record in snapshot["servers"]:
        sid = record["server_id"] % size
        alive[sid] = record["alive"]
        for key, entry_ids in record["stores"].items():
            interners.setdefault(key, {}).update(dict.fromkeys(entry_ids))
            pairs = [[entry_id, None] for entry_id in entry_ids]
            image["stores"].setdefault(key, {})[str(sid)] = pairs
        for key, values in record.get("state", {}).items():
            image["states"].setdefault(key, {})[sid] = values
    image["interners"] = {key: [[e, None] for e in ids] for key, ids in interners.items()}
    return {"alive": alive, "image": dict(image, stores=indexed_stores(image))}


def restore_cluster(snapshot: Dict[str, Any], cluster: Cluster) -> Cluster:
    """Load a snapshot into ``cluster`` (which must match in size).

    Existing stores and state are wiped first.  The cluster's interners
    must agree with the snapshot's from index 0 — a fresh cluster's, or
    the one it was taken from — or this raises :class:`ValueError`,
    with the cluster left wiped.
    """
    version = snapshot.get("format_version")
    if version not in _READABLE_FORMATS:
        raise InvalidParameterError(
            f"snapshot has format version {version!r}; expected one of "
            f"{_READABLE_FORMATS}"
        )
    if snapshot.get("size") != cluster.size:
        raise InvalidParameterError(
            f"snapshot is for {snapshot.get('size')} servers; "
            f"cluster has {cluster.size}"
        )
    if version == 1:
        snapshot = _as_format_2(snapshot, cluster.size)
    cluster.wipe()
    for server, up in zip(cluster.servers, snapshot["alive"]):
        if up:
            server.recover()
        else:
            server.fail()
    apply_image(ClusterImage.from_json(snapshot["image"]), cluster)
    return cluster


def save_snapshot(cluster: Cluster, path: PathLike) -> pathlib.Path:
    """Snapshot to a JSON file."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(snapshot_cluster(cluster), indent=2) + "\n")
    return target


def load_snapshot(path: PathLike, cluster: Cluster) -> Cluster:
    """Restore a JSON snapshot file into ``cluster``."""
    return restore_cluster(
        json.loads(pathlib.Path(path).read_text()), cluster
    )

