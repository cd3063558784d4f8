"""Service-level crash recovery: a --store log service becomes its former self."""

import base64
import copy
import errno
import json
import pathlib
import random
import shutil
import struct

import pytest

from repro.cluster import snapshots
from repro.cluster.faults import FaultPlan
from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest, PlaceRequest
from repro.cluster.snapshots import ClusterImage
from repro.core import storage
from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError
from repro.core.storage import MemoryBackend, apply_record
from repro.net.codec import encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import compute_apply_delta
from repro.storage import appendlog
from repro.storage.appendlog import AppendLogJournal
from repro.strategies.round_robin import StorePositioned


def _config(tmp_path, **overrides):
    base = dict(
        server_count=8,
        entry_count=12,
        seed=3,
        store="log",
        data_dir=str(tmp_path),
    )
    base.update(overrides)
    return ServiceConfig(**base)


def _send(key, message, server=0):
    return {
        "op": "send",
        "server": server,
        "key": key,
        "message": encode_message(message),
    }


def _masks(service, key):
    return [server.store(key).mask for server in service.cluster.servers]


def _mutate(service):
    assert service.handle_envelope(
        _send("full_replication", AddRequest(entry=Entry("w1")))
    )["ok"]
    assert service.handle_envelope(
        _send("full_replication", DeleteRequest(entry=Entry("v2")))
    )["ok"]
    assert service.handle_envelope(_send("hash", AddRequest(entry=Entry("w2"))))["ok"]


class TestConfigValidation:
    def test_log_store_requires_a_data_dir(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(store="log")

    def test_unknown_store_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(store="clay-tablet")

    def test_memory_store_never_opens_a_journal(self):
        service = LookupService(ServiceConfig(server_count=4, entry_count=6))
        assert service.journal is None
        assert not service.recovered


class TestCrashRecovery:
    def test_recovery_rebuilds_every_store_bit_identically(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.close()  # the process "dies"; no shutdown logic runs

        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered
        for key in crashed.strategies:
            assert _masks(reborn, key) == _masks(crashed, key)
            for sid in range(crashed.cluster.size):
                a = crashed.cluster.server(sid).store(key)
                b = reborn.cluster.server(sid).store(key)
                assert b.as_list() == a.as_list()
                assert b.indices() == a.indices()

    def test_recovered_rng_resumes_the_exact_stream(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        expected = crashed.cluster.rng.getstate()
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.cluster.rng.getstate() == expected

    def test_full_store_replies_are_identical(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        control = {
            key: [
                crashed.handle_envelope(_send(key, LookupRequest(0), server=sid))
                for sid in range(crashed.cluster.size)
            ]
            for key in sorted(crashed.strategies)
        }
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        for key, replies in control.items():
            for sid, expected in enumerate(replies):
                got = reborn.handle_envelope(_send(key, LookupRequest(0), server=sid))
                assert got == expected

    def test_sampled_lookup_after_mutation_is_byte_identical(self, tmp_path):
        # The RNG is journaled at every mutation sync point, so a
        # sampled (RNG-consuming) lookup right after the last mutation
        # answers identically on the recovered twin.
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        probe = _send("random_server", LookupRequest(5), server=2)
        assert reborn.handle_envelope(probe) == crashed.handle_envelope(probe)

    def test_hash_params_survive_recovery(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        params = crashed.strategies["hash"].params()
        _mutate(crashed)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.strategies["hash"].params() == params

    def test_fresh_boot_is_not_recovered(self, tmp_path):
        service = LookupService(_config(tmp_path))
        assert not service.recovered
        assert service.recovered_epoch == 0

    def test_recovery_adopts_journaled_epochs(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.record_epoch("full_replication", 7)
        crashed.journal.record_epoch("hash", 4)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered_epoch == 7
        # ...per scheme, and a compaction carries them forward
        reborn.compact_journal()
        reborn.journal.close()
        epochs = AppendLogJournal(str(tmp_path), read_only=True).load().epochs
        assert epochs["full_replication"] == 7 and epochs["hash"] == 4


def _tail_sequence():
    """After a compaction: riders added, swapped and dropped, deletes."""
    for key in sorted(DEFAULT_SCHEMES):
        yield _send(key, AddRequest(entry=Entry("w3", {"port": 3})), server=6)
        yield _send(key, DeleteRequest(entry=Entry("v5")), server=1)
        yield _send(key, AddRequest(entry=Entry("w2", {"port": 8})), server=2)
        yield _send(key, DeleteRequest(entry=Entry("w3")), server=7)


class TestRecoveryAppliesEachRecordOnce:
    def test_a_recovery_boot_applies_the_snapshot_and_each_delta_once(
        self, tmp_path, monkeypatch
    ):
        crashed = LookupService(_config(tmp_path))
        for envelope in _write_sequence():
            crashed.handle_envelope(envelope)
        crashed.compact_journal()
        for envelope in _tail_sequence():
            crashed.handle_envelope(envelope)
        crashed.journal.close()

        # What the data dir holds: each scheme's record from the
        # snapshot, then the log tail's update records, in order.
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        expected = list(ClusterImage.from_json(snapshot["image"]).records.values())
        assert sorted(record["key"] for record in expected) == sorted(DEFAULT_SCHEMES)
        (log,) = tmp_path.glob("journal.*.log")
        tail = [r for line in _lines(log) for r in json.loads(line) if r["op"] == "delta"]
        assert len(tail) >= len(DEFAULT_SCHEMES)
        expected += tail

        applied = []

        def counting(stores, record, replace=False):
            applied.append(record)
            return apply_record(stores, record, replace)

        for module in (storage, snapshots, appendlog):
            monkeypatch.setattr(module, "apply_record", counting)
        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered
        assert applied == expected

        assert _fingerprint(reborn) == _fingerprint(crashed)
        for key in crashed.strategies:
            assert _masks(reborn, key) == _masks(crashed, key)
            for sid in range(crashed.cluster.size):
                held = [
                    (e.entry_id, e.payload)
                    for e in crashed.cluster.server(sid).store(key)
                ]
                assert [
                    (e.entry_id, e.payload)
                    for e in reborn.cluster.server(sid).store(key)
                ] == held

    def test_a_journal_naming_more_servers_than_the_cluster_refuses_to_boot(
        self, tmp_path
    ):
        LookupService(_config(tmp_path)).journal.close()
        with pytest.raises(appendlog.RecoveryError, match="the cluster has 4 servers"):
            LookupService(_config(tmp_path, server_count=4))


class TestCompactionAndObservability:
    def test_recovery_after_compaction_is_identical(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.compact_journal()
        assert crashed.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("w3")))
        )["ok"]
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        assert reborn.recovered
        for key in crashed.strategies:
            assert _masks(reborn, key) == _masks(crashed, key)

    def test_auto_compaction_triggers_from_the_threshold(self, tmp_path):
        service = LookupService(_config(tmp_path, log_compact_records=10))
        for n in range(8):
            service.handle_envelope(
                _send("full_replication", AddRequest(entry=Entry(f"w{n}")))
            )
        assert service.journal.compactions >= 1

    def test_capabilities_surface_the_backend(self, tmp_path):
        service = LookupService(_config(tmp_path))
        storage = service.capabilities()["storage"]
        assert storage["kind"] == "log"
        assert storage["data_dir"] == str(tmp_path)
        assert storage["recovered"] is False
        assert storage["log_records"] > 0  # boot records landed

    def test_memory_capabilities_say_memory(self):
        service = LookupService(ServiceConfig(server_count=4, entry_count=6))
        storage = service.capabilities()["storage"]
        assert storage == {"kind": "memory", "recovered": False}

    def test_metrics_mirror_the_journal(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        _mutate(crashed)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        reborn.capabilities()  # an info probe publishes the gauges
        snapshot = reborn.metrics.snapshot()
        assert snapshot["storage_recovered"] == 1
        assert snapshot["storage_log_records"] > 0
        assert snapshot["storage_log_bytes"] > 0

    def test_read_only_service_recovers_but_never_writes(self, tmp_path):
        writer = LookupService(_config(tmp_path))
        _mutate(writer)
        writer.journal.close()
        reader = LookupService(_config(tmp_path, store_read_only=True))
        assert reader.recovered
        assert reader.journal.read_only
        before = sorted(p.name for p in tmp_path.iterdir())
        reader.handle_envelope(
            _send("full_replication", AddRequest(entry=Entry("w9")))
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == before


# -- the durable write path: what a mutation writes, and when ---------------


def _fingerprint(service):
    """Everything recovery promises to bring back, comparable by ``==``."""
    servers = service.cluster.servers
    return {
        "stores": {
            key: [
                (server.store(key).as_list(), server.store(key).indices())
                for server in servers
            ]
            for key in service.strategies
        },
        "states": {
            key: [
                {
                    k: copy.deepcopy(v)
                    for k, v in server.state(key).items()
                    if k != "migrations"
                }
                for server in servers
            ]
            for key in service.strategies
        },
        "rng": service.cluster.rng.getstate(),
    }


#: A bulk placement's batch: a held entry, a rider and a fresh id.
_PLACED = (Entry("v3"), Entry("p1", {"port": 5}), Entry("w9"))


def _write_sequence():
    """A fixed add/delete/place sequence over all five schemes, no-ops
    included.

    The place reaches every state write a scheme has: Round-Robin's
    ``SetCounters`` and ``positions``, RandomServer-x's ``h``."""
    for key in sorted(DEFAULT_SCHEMES):
        yield _send(key, AddRequest(entry=Entry("w1")), server=1)
        yield _send(key, AddRequest(entry=Entry("w2", {"port": 7})), server=5)
        yield _send(key, DeleteRequest(entry=Entry("v2")), server=2)
        yield _send(key, AddRequest(entry=Entry("v3")), server=0)  # present
        yield _send(key, DeleteRequest(entry=Entry("w1")), server=3)
        yield _send(key, DeleteRequest(entry=Entry("nobody")), server=4)
        yield _send(key, PlaceRequest(entries=_PLACED), server=6)


def _dumps(value, **kwargs):
    return json.dumps(value, separators=(",", ":"), **kwargs)


class _DedupeOracle:
    """The records the journal must write, stated the slow way.

    A ``state``/``rng``/``params`` payload is journaled iff the
    sorted-JSON text of it differs from the last one journaled for its
    slot, and a state that was always empty is never journaled.  A
    slot's first ``state`` record carries the whole state; after that
    a ``patch`` carries the top-level keys whose text changed (``set``,
    in the state's order), the ones that are gone (``del``, sorted) and,
    for a key holding a dict before and after, the same two fields one
    level down (``sub``, keys sorted).  The RNG's 625 words travel as
    base64 of little-endian uint32."""

    def __init__(self):
        self.last = {}

    @staticmethod
    def _text(value):
        return _dumps(value, sort_keys=True)

    def _flat(self, old, new):
        fields = {}
        put = {
            k: new[k]
            for k in sorted(new)
            if k not in old or self._text(old[k]) != self._text(new[k])
        }
        gone = sorted(k for k in old if k not in new)
        if put:
            fields["set"] = put
        if gone:
            fields["del"] = gone
        return fields

    def _patch(self, old, new):
        put, nested = {}, {}
        for name, value in new.items():
            if name in old and self._text(old[name]) == self._text(value):
                continue
            if isinstance(old.get(name), dict) and isinstance(value, dict):
                nested[name] = self._flat(old[name], value)
            else:
                put[name] = value
        fields = {}
        if put:
            fields["set"] = put
        gone = sorted(k for k in old if k not in new)
        if gone:
            fields["del"] = gone
        if nested:
            fields["sub"] = nested
        return fields

    def _remember(self, slot, payload):
        self.last[slot] = json.loads(_dumps(payload))

    def params(self, params):
        if self._text(self.last.get(("params",))) == self._text(params):
            return []
        self._remember(("params",), params)
        return [{"op": "params", "schemes": params}]

    def state(self, key, sid, payload):
        slot = ("state", key, sid)
        old = self.last.get(slot)
        if old is None:
            if not payload:
                return []
            self._remember(slot, payload)
            return [{"op": "state", "k": key, "s": sid, "state": payload}]
        if self._text(old) == self._text(payload):
            return []
        self._remember(slot, payload)
        return [{"op": "patch", "k": key, "s": sid, **self._patch(old, payload)}]

    def sync_records(self, service, keys_of):
        """The non-store records one sync point over ``keys_of(server)`` owes."""
        records = []
        for server in service.cluster.servers:
            for key in keys_of(server):
                payload = {
                    k: v for k, v in server.state(key).items() if k != "migrations"
                }
                records += self.state(key, server.server_id, payload)
        version, words, gauss = service.cluster.rng.getstate()
        packed = base64.b64encode(struct.pack("<625I", *words)).decode("ascii")
        rng = [version, packed, gauss]
        if self._text(self.last.get(("rng",))) == self._text(rng):
            return records
        self._remember(("rng",), rng)
        return records + [{"op": "rng", "state": rng}]


_STORE_OPS = {"delta"}


def _lines(log):
    return log.read_text().splitlines()


def _split_store_prefix(line):
    """Store records come first in every barrier; returns (store, rest)."""
    records = json.loads(line)
    ops = [record["op"] for record in records]
    cut = next((i for i, op in enumerate(ops) if op not in _STORE_OPS), len(ops))
    assert not _STORE_OPS.intersection(ops[cut:])
    return records[:cut], records[cut:]


def _expected_line(store, rest):
    """One barrier's line: the array of its records, in the journal's spelling."""
    return _dumps(store + rest)


def _every_line_matches_the_oracle(tmp_path, **overrides):
    log = tmp_path / "journal.000001.log"
    oracle = _DedupeOracle()
    service = LookupService(_config(tmp_path, **overrides))
    params = {name: s.params() for name, s in service.strategies.items()}
    (boot_line,) = _lines(log)  # the boot is one barrier
    store, _ = _split_store_prefix(boot_line)
    assert boot_line == _expected_line(
        store,
        oracle.params(params)
        + oracle.sync_records(service, lambda server: server.keys()),
    )

    seen, records = 1, len(json.loads(boot_line))
    counts = {"state": 0, "patch": 0, "rng": 0}
    for envelope in _write_sequence():
        assert service.handle_envelope(envelope)["ok"]
        lines = _lines(log)
        fresh, seen = lines[seen:], len(lines)
        assert len(fresh) <= 1  # a write is one barrier, so one line
        key = envelope["key"]
        expected = oracle.sync_records(service, lambda server: [key])
        if not fresh:
            assert expected == []
            continue
        store, rest = _split_store_prefix(fresh[0])
        assert fresh[0] == _expected_line(store, expected)
        records += len(store) + len(rest)
        for record in rest:
            counts[record["op"]] += 1
    # the sequence exercised both outcomes of both dedupes, and the
    # state slots were patched, not rewritten
    assert counts["state"] == 0 and 0 < counts["patch"] and 0 < counts["rng"] < 30
    assert records == service.journal.log_records


class TestJournalBytes:
    def test_every_line_matches_the_sorted_json_oracle(self, tmp_path):
        _every_line_matches_the_oracle(tmp_path)

    def test_replicated_counters_match_the_oracle_too(self, tmp_path):
        # ``_sync_counters``/``_mirror_counters`` rewrite values they
        # leave unchanged: no record may come of that.
        schemes = dict(DEFAULT_SCHEMES, round_robin={"y": 2, "counter_replicas": 2})
        _every_line_matches_the_oracle(tmp_path, schemes=schemes)


def _journaling_work(tmp_path, entries, monkeypatch):
    """What the sync points of a fixed Round-Robin script read and copy
    of the scratch states, counted per ``record_state``: the logged
    slots and top-level names a patch reads, and the values it copies."""
    service = LookupService(_config(
        tmp_path / str(entries), entry_count=entries,
        schemes={"round_robin": {"y": 2}}, log_compact_records=0,
    ))
    work = []
    real_patch, real_detached = appendlog._patch, appendlog._detached

    def patch(state, before):
        work.append(("read", len(before) + len(state)))
        return real_patch(state, before)

    def detached(value):
        work.append(("copy", 1 + len(value) if isinstance(value, (dict, list)) else 1))
        return real_detached(value)

    monkeypatch.setattr(appendlog, "_patch", patch)
    monkeypatch.setattr(appendlog, "_detached", detached)
    script = [DeleteRequest(entry=Entry("v5"))]
    for i in range(10):
        script += [AddRequest(entry=Entry(f"x{i}")), DeleteRequest(entry=Entry(f"x{i}"))]
    for i, message in enumerate(script):
        assert service.handle_envelope(_send("round_robin", message, server=i % 8))["ok"]
    monkeypatch.undo()
    service.journal.close()
    return work


class TestJournalingWork:
    def test_a_round_robin_write_journals_the_same_work_at_any_size(
        self, tmp_path, monkeypatch
    ):
        # Both sizes are multiples of the 8 servers, so the script's
        # positions land on the same servers; only the stores' size
        # differs, and the journal must not read it.
        small = _journaling_work(tmp_path, 2_000, monkeypatch)
        assert ("read", 0) not in small and len(small) > 20
        assert _journaling_work(tmp_path, 20_000, monkeypatch) == small


class TestWriteBarriers:
    def test_a_mutating_envelope_is_at_most_two_writes(
        self, tmp_path, monkeypatch, count_writes
    ):
        synced = []
        monkeypatch.setattr(appendlog.os, "fsync", synced.append)
        service = LookupService(_config(tmp_path))
        journal = service.journal
        journal.fsync = True
        counting = count_writes(journal)
        epoch = 0
        for envelope in _write_sequence():
            records = journal.log_records
            # what WriterBus._apply does for one forwarded write
            reply, delta = compute_apply_delta(service, envelope)
            assert reply["ok"]
            if delta is not None:
                epoch += 1
                service.set_shared_epoch(delta["key"], epoch)
                journal.record_epoch(delta["key"], epoch)
            barriers = (journal.log_records > records) + (delta is not None)
            assert counting.writes <= barriers <= 2
            assert len(synced) == counting.writes  # one fsync per barrier
            counting.writes = 0
            synced.clear()
        assert epoch > 10


@pytest.mark.parametrize("key", sorted(DEFAULT_SCHEMES))
class TestCrashBetweenBarriers:
    def test_a_mutation_is_on_disk_whole_or_not_at_all(
        self, tmp_path, monkeypatch, key
    ):
        live_dir, mid_dir, done_dir = (tmp_path / n for n in ("live", "mid", "done"))
        service = LookupService(_config(live_dir))
        assert service.handle_envelope(_send(key, AddRequest(entry=Entry("w0"))))["ok"]
        before = _fingerprint(service)
        real_discard = MemoryBackend.discard

        def discard_then_crash(store, entry):
            removed = real_discard(store, entry)
            if removed and not mid_dir.exists():
                # SIGKILL here: a store has moved, the update record,
                # state and rng of the write are not written yet.
                shutil.copytree(live_dir, mid_dir)
            return removed

        monkeypatch.setattr(MemoryBackend, "discard", discard_then_crash)
        assert service.handle_envelope(
            _send(key, DeleteRequest(entry=Entry("v2")), server=2)
        )["ok"]
        shutil.copytree(live_dir, done_dir)
        monkeypatch.undo()
        assert mid_dir.exists()  # the delete did reach a store
        assert _fingerprint(service) != before

        assert _fingerprint(LookupService(_config(mid_dir))) == before
        assert _fingerprint(LookupService(_config(done_dir))) == _fingerprint(service)


class _DiesAfterFirstStore:
    """A Round-Robin logic whose add handler dies after one replica landed."""

    def __init__(self, inner, rng):
        self.inner = inner
        self.rng = rng
        self.armed = True

    def handle(self, server, message, network):
        reply = self.inner.handle(server, message, network)
        if self.armed and isinstance(message, StorePositioned):
            self.armed = False
            self.rng.random()  # it had drawn before it died
            raise RuntimeError("replica fan-out interrupted")
        return reply


class TestPartialMutation:
    def test_a_handler_that_raises_half_way_still_recovers_exactly(self, tmp_path):
        service = LookupService(_config(tmp_path))
        inner = service.cluster.servers[0].logic_for("round_robin")
        stub = _DiesAfterFirstStore(inner, service.cluster.rng)
        for server in service.cluster.servers:
            server.install_logic("round_robin", stub)
        before = _fingerprint(service)
        reply, delta = compute_apply_delta(
            service, _send("round_robin", AddRequest(entry=Entry("w1")))
        )
        assert reply["error"] == "internal"
        assert delta is not None  # the partial diff ships to the readers...
        after = _fingerprint(service)
        assert after["stores"] != before["stores"]
        assert after["states"] != before["states"]
        assert after["rng"] != before["rng"]
        # ...so the journal must hold exactly that partial state too.
        assert _fingerprint(LookupService(_config(tmp_path))) == after


class _FullDisk:
    """A journal's log file whose next write lands half its bytes, then
    fails as a full disk does."""

    def __init__(self, fh):
        self._fh = fh
        self.armed = True

    def write(self, data):
        if self.armed:
            self.armed = False
            self._fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestAFailedWrite:
    def test_its_records_land_with_the_next_barrier(self, tmp_path):
        live, crashed = tmp_path / "live", tmp_path / "crashed"
        service = LookupService(_config(live))
        assert service.handle_envelope(_send("hash", AddRequest(entry=Entry("w0"))))["ok"]
        journal = service.journal
        log = live / "journal.000001.log"
        size = log.stat().st_size
        journal._fh = disk = _FullDisk(journal._fh)
        reply = service.handle_envelope(
            _send("round_robin", AddRequest(entry=Entry("w1")), server=2)
        )
        assert reply["error"] == "internal" and not disk.armed
        assert log.stat().st_size == size  # the half line is cut off again
        assert journal._pending  # and its records still queued
        assert service.handle_envelope(
            _send("round_robin", DeleteRequest(entry=Entry("v2")), server=5)
        )["ok"]
        shutil.copytree(live, crashed)
        reborn = LookupService(_config(crashed))
        assert _fingerprint(reborn) == _fingerprint(service)
        for key in service.strategies:
            assert _masks(reborn, key) == _masks(service, key)


class TestRecoverySeedsTheDedupe:
    def test_a_noop_mutation_after_recovery_appends_nothing(self, tmp_path):
        crashed = LookupService(_config(tmp_path))
        for envelope in _write_sequence():
            crashed.handle_envelope(envelope)
        crashed.journal.close()
        reborn = LookupService(_config(tmp_path))
        records, size = reborn.journal.log_records, reborn.journal.log_bytes
        assert reborn.handle_envelope(
            _send("fixed", AddRequest(entry=Entry("v3")))
        )["ok"]
        assert reborn.journal.log_records == records
        assert reborn.journal.log_bytes == size


def _churn(seed, steps=40):
    """A seeded add/delete script: fresh adds, deletes, and re-adds of
    deleted entries."""
    rng = random.Random(seed)
    live = [f"v{i}" for i in range(1, 13)]
    gone = []
    fresh = 12
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4 and live:
            entry_id = live.pop(rng.randrange(len(live)))
            gone.append(entry_id)
            message = DeleteRequest(entry=Entry(entry_id))
        else:
            if roll < 0.7 and gone:
                entry_id = gone.pop(rng.randrange(len(gone)))
            else:
                fresh += 1
                entry_id = f"v{fresh}"
            live.append(entry_id)
            message = AddRequest(entry=Entry(entry_id))
        yield message, rng.randrange(8)


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faults"])
@pytest.mark.parametrize("key", sorted(DEFAULT_SCHEMES))
class TestTouchedServers:
    """The sync point journals the state of only the servers whose
    state the write set; no other server's state may have moved."""

    def test_the_kept_states_and_a_recovery_track_every_server(
        self, tmp_path, key, faults
    ):
        live = tmp_path / "live"
        service = LookupService(_config(live))
        if faults:
            service.cluster.network.install_fault_plan(
                FaultPlan(seed=5, drop_probability=0.2, duplicate_probability=0.2)
            )
        for step, (message, sid) in enumerate(_churn(seed=28)):
            service.handle_envelope(_send(key, message, sid))
            kept = AppendLogJournal(live, read_only=True).load().states
            for name in service.strategies:
                for server in service.cluster.servers:
                    if server.has_store(name):
                        assert kept.get(name, {}).get(server.server_id, {}) == (
                            appendlog._persistable_state(server.state(name))
                        ), (step, name, server.server_id)
            crashed = tmp_path / f"crashed-{step}"
            shutil.copytree(live, crashed)
            reborn = LookupService(_config(crashed))
            assert _fingerprint(reborn) == _fingerprint(service), step
            assert _masks(reborn, key) == _masks(service, key), step
            reborn.journal.close()
            shutil.rmtree(crashed)


#: Data dirs in the journal's earlier spellings, each made by running
#: ``_first_format_script`` through ``compute_apply_delta`` on a
#: ``store="log"`` service of ``_config``, journaling an epoch per delta
#: and compacting after the ninth write.  ``schema1``: one record per
#: line, the RNG as a JSON list of ints, a schema-1 snapshot.
#: ``schema2``: a JSON-array line per barrier of per-entry ``add`` /
#: ``drop`` records with ``patch`` and base64 ``rng`` records, and a
#: schema-2 snapshot (stores as ``[id, payload]`` pairs).
DATA = pathlib.Path(__file__).parent / "data"


def _first_format_script():
    for key in sorted(DEFAULT_SCHEMES):
        yield _send(key, AddRequest(entry=Entry("w1")), server=1)
        yield _send(key, DeleteRequest(entry=Entry("v2")), server=2)
        yield _send(key, AddRequest(entry=Entry("v2", {"port": 7})), server=3)


def _recovers_then_continues(fixture, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(DATA / fixture, data)
    twin = LookupService(ServiceConfig(server_count=8, entry_count=12, seed=3))
    epoch = 0
    for envelope in _first_format_script():
        epoch += compute_apply_delta(twin, envelope)[1] is not None
    reborn = LookupService(_config(data))
    assert reborn.recovered and reborn.recovered_epoch == epoch
    assert _fingerprint(reborn) == _fingerprint(twin)
    for key in twin.strategies:
        assert _masks(reborn, key) == _masks(twin, key)

    # The recovered writer appends update records after the old lines,
    # then compacts to the current schema; each stage recovers.
    for more in (
        _send("round_robin", DeleteRequest(entry=Entry("w1")), server=4),
        _send("round_robin", AddRequest(entry=Entry("w2", {"port": 9})), server=6),
    ):
        assert reborn.handle_envelope(dict(more)) == twin.handle_envelope(dict(more))
    reborn.journal.close()
    (log,) = data.glob("journal.*.log")
    assert json.loads(log.read_text().splitlines()[-1])[0]["op"] == "delta"
    assert _fingerprint(LookupService(_config(data))) == _fingerprint(twin)
    again = LookupService(_config(data))
    again.compact_journal()
    again.journal.close()
    snapshot = json.loads((data / "snapshot.json").read_text())
    assert snapshot["schema"] == appendlog.SNAPSHOT_SCHEMA == 3
    assert _fingerprint(LookupService(_config(data))) == _fingerprint(twin)


class TestTheEarlierFormat:
    def test_a_schema_1_data_dir_recovers_to_the_never_crashed_twin(self, tmp_path):
        _recovers_then_continues("schema1", tmp_path)

    def test_a_schema_2_data_dir_recovers_to_the_never_crashed_twin(self, tmp_path):
        _recovers_then_continues("schema2", tmp_path)
