"""Service-level crash recovery: a --store log service becomes its former self."""

import copy
import json
import random
import shutil

import pytest

from repro.cluster.messages import AddRequest, DeleteRequest, LookupRequest
from repro.core.entry import Entry
from repro.core.exceptions import InvalidParameterError
from repro.net.codec import encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import compute_apply_delta
from repro.storage import appendlog
from repro.storage.appendlog import AppendLogJournal, LogBackend
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


def _write_sequence():
    """A fixed add/delete sequence over all five schemes, no-ops included."""
    for key in sorted(DEFAULT_SCHEMES):
        yield _send(key, AddRequest(entry=Entry("w1")), server=1)
        yield _send(key, AddRequest(entry=Entry("w2", {"port": 7})), server=5)
        yield _send(key, DeleteRequest(entry=Entry("v2")), server=2)
        yield _send(key, AddRequest(entry=Entry("v3")), server=0)  # present
        yield _send(key, DeleteRequest(entry=Entry("w1")), server=3)
        yield _send(key, DeleteRequest(entry=Entry("nobody")), server=4)


def _dumps(value, **kwargs):
    return json.dumps(value, separators=(",", ":"), **kwargs)


class _DedupeOracle:
    """The rule the journal's dedupe must reproduce, stated the slow way:
    a ``state``/``rng``/``params`` line is written iff the sorted-JSON
    text of its payload differs from the last text written for its slot
    (and a state that was always empty is never written)."""

    def __init__(self):
        self.last = {}

    def line(self, slot, record, payload):
        text = _dumps(payload, sort_keys=True)
        if self.last.get(slot) == text:
            return []
        if slot[0] == "state" and not payload and slot not in self.last:
            return []
        self.last[slot] = text
        return [_dumps(record)]

    def sync_lines(self, service, keys_of):
        """The non-store lines one sync point over ``keys_of(server)`` owes."""
        lines = []
        for server in service.cluster.servers:
            for key in keys_of(server):
                payload = {
                    k: v for k, v in server.state(key).items() if k != "migrations"
                }
                lines += self.line(
                    ("state", key, server.server_id),
                    {"op": "state", "k": key, "s": server.server_id, "state": payload},
                    payload,
                )
        state = service.cluster.rng.getstate()
        jsonable = [state[0], list(state[1]), state[2]]
        return lines + self.line(("rng",), {"op": "rng", "state": jsonable}, jsonable)


_STORE_OPS = {"add", "drop", "swap", "reset", "clear"}


def _split_store_prefix(lines):
    """Store records come first in every flush; returns (store, rest)."""
    ops = [json.loads(line)["op"] for line in lines]
    cut = next((i for i, op in enumerate(ops) if op not in _STORE_OPS), len(ops))
    assert not _STORE_OPS.intersection(ops[cut:])
    return lines[:cut], lines[cut:]


class TestJournalBytes:
    def test_every_line_matches_the_sorted_json_oracle(self, tmp_path):
        log = tmp_path / "journal.000001.log"
        oracle = _DedupeOracle()
        service = LookupService(_config(tmp_path))
        params = {name: s.params() for name, s in service.strategies.items()}
        _, boot = _split_store_prefix(log.read_text().splitlines())
        assert boot == oracle.line(
            ("params",), {"op": "params", "schemes": params}, params
        ) + oracle.sync_lines(service, lambda server: server.keys())

        seen = len(log.read_text().splitlines())
        state_lines = rng_lines = 0
        for envelope in _write_sequence():
            assert service.handle_envelope(envelope)["ok"]
            lines = log.read_text().splitlines()
            _, rest = _split_store_prefix(lines[seen:])
            seen = len(lines)
            key = envelope["key"]
            assert rest == oracle.sync_lines(service, lambda server: [key])
            state_lines += sum('"op":"state"' in line for line in rest)
            rng_lines += sum('"op":"rng"' in line for line in rest)
        # the sequence exercised both outcomes of both dedupes
        assert 0 < state_lines and 0 < rng_lines < 30
        assert seen == service.journal.log_records


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
        real_discard = LogBackend.discard

        def discard_then_crash(store, entry):
            removed = real_discard(store, entry)
            if removed and not mid_dir.exists():
                # SIGKILL here: the store record is queued, the state
                # and rng it advances to are not written yet.
                shutil.copytree(live_dir, mid_dir)
            return removed

        monkeypatch.setattr(LogBackend, "discard", discard_then_crash)
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
