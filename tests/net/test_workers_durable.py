"""Fleet durability: snapshot parity over the backend interface and
DeltaApplier behaviour on a disk-recovered worker.

The snapshot half is the ``snapshot_stores``/``load_snapshot`` contract
(every scheme round-trips, and a durable reader keeps what it adopted);
the applier half is the recover-from-disk boot path — a
respawned worker replays the journal, seeds its watermark from the
recovered epoch, and then catches up from the bus deltas that follow
instead of a full network resync (with the gap fallback intact).
"""

import asyncio
import os
import tempfile

import pytest

from repro.cluster.messages import AddRequest, DeleteRequest
from repro.core.entry import Entry
from repro.net.codec import encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.net.workers import (
    DeltaApplier,
    WriteForwarder,
    WriterBus,
    compute_apply_delta,
    load_snapshot,
    snapshot_stores,
)

from .test_workers import _forward


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


CONFIG = ServiceConfig(server_count=8, entry_count=12, seed=3)


def _log_config(data_dir, **overrides):
    base = dict(
        server_count=8, entry_count=12, seed=3, store="log", data_dir=str(data_dir)
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


def _stores(service, key):
    return [server.store(key).as_list() for server in service.cluster.servers]


def _mutate(service):
    for envelope in (
        _send("full_replication", AddRequest(entry=Entry("zz-1"))),
        _send("full_replication", DeleteRequest(entry=Entry("v2"))),
        _send("hash", AddRequest(entry=Entry("zz-2"))),
    ):
        assert service.handle_envelope(envelope)["ok"]


class TestSnapshotParity:
    """Snapshot/load round-trip, by dense index."""

    @pytest.mark.parametrize("key", sorted(DEFAULT_SCHEMES))
    def test_each_scheme_round_trips(self, key):
        source = LookupService(CONFIG)
        _mutate(source)
        target = LookupService(CONFIG)
        load_snapshot(target, snapshot_stores(source))
        assert _stores(target, key) == _stores(source, key)
        assert _masks(target, key) == _masks(source, key)

    def test_snapshot_preserves_insertion_order_per_server(self):
        source = LookupService(CONFIG)
        _mutate(source)
        target = LookupService(CONFIG)
        load_snapshot(target, snapshot_stores(source))
        for key in DEFAULT_SCHEMES:
            for a, b in zip(
                source.cluster.servers, target.cluster.servers
            ):
                assert b.store(key).as_list() == a.store(key).as_list()
                assert b.store(key).indices() == a.store(key).indices()

    def test_load_into_a_durable_reader_is_one_compaction(self, tmp_path):
        source = LookupService(CONFIG)
        _mutate(source)
        reader = LookupService(_log_config(tmp_path))
        compactions = reader.journal.compactions
        load_snapshot(reader, snapshot_stores(source))
        assert reader.journal.compactions == compactions + 1
        assert reader.journal.log_records == 0  # the adoption is the snapshot
        # a read-only journal adopts in memory and writes nothing
        replica = LookupService(_log_config(tmp_path, store_read_only=True))
        files = sorted((p.name, p.stat().st_size) for p in tmp_path.iterdir())
        load_snapshot(replica, snapshot_stores(source))
        assert sorted((p.name, p.stat().st_size) for p in tmp_path.iterdir()) == files
        assert _masks(replica, "hash") == _masks(source, "hash")

    def test_adopted_snapshot_survives_a_crash(self, tmp_path):
        source = LookupService(CONFIG)
        _mutate(source)
        reader = LookupService(_log_config(tmp_path))
        load_snapshot(reader, snapshot_stores(source))
        reader.journal.close()
        reborn = LookupService(_log_config(tmp_path))
        assert reborn.recovered
        for key in DEFAULT_SCHEMES:
            assert _stores(reborn, key) == _stores(source, key)
            assert _masks(reborn, key) == _masks(source, key)


class TestDurableDeltaApplier:
    """Satellite: resync behaviour with a store recovered from disk."""

    def _crash_and_recover(self, tmp_path, epochs=3):
        """A writer journals ``epochs`` mutations, dies; returns
        (writer service, its deltas, the disk-recovered reader)."""
        writer = LookupService(_log_config(tmp_path))
        deltas = []
        for n in range(epochs):
            _, delta = compute_apply_delta(
                writer, _send("full_replication", AddRequest(entry=Entry(f"zz-{n}")))
            )
            assert delta is not None
            delta["epoch"] = n + 1
            writer.journal.record_epoch(delta["key"], delta["epoch"])
            deltas.append(delta)
        writer.journal.close()
        recovered = LookupService(_log_config(tmp_path, store_read_only=True))
        assert recovered.recovered
        assert recovered.recovered_epoch == epochs
        return writer, deltas, recovered

    def test_replayed_epochs_are_duplicates_after_recovery(self, tmp_path):
        writer, deltas, recovered = self._crash_and_recover(tmp_path)
        applier = DeltaApplier(recovered, applied=recovered.recovered_epoch)
        # every journal-replayed delta arrives again via the bus: all
        # must be recognized as duplicates, and the stores must not drift
        for delta in deltas:
            assert applier.offer(delta) == "duplicate"
        assert _masks(recovered, "full_replication") == _masks(
            writer, "full_replication"
        )

    def test_next_epochs_apply_after_recovery(self, tmp_path):
        _, _, recovered = self._crash_and_recover(tmp_path)
        applier = DeltaApplier(recovered, applied=recovered.recovered_epoch)
        live = LookupService(_log_config(tmp_path, store_read_only=True))
        next_epoch = recovered.recovered_epoch + 1
        for offset, entry_id in enumerate(("post-a", "post-b")):
            _, delta = compute_apply_delta(
                live, _send("full_replication", AddRequest(entry=Entry(entry_id)))
            )
            delta["epoch"] = next_epoch + offset
            # the sequence picks up exactly where the journal left off
            assert applier.offer(delta) == "applied"
        assert applier.applied == next_epoch + 1
        assert _masks(recovered, "full_replication") == _masks(
            live, "full_replication"
        )

    def test_gap_after_recovery_requests_a_resync(self, tmp_path):
        writer, _, recovered = self._crash_and_recover(tmp_path)
        applier = DeltaApplier(recovered, applied=recovered.recovered_epoch)
        ahead = recovered.recovered_epoch + 2  # leave a hole at +1
        template = {"key": "full_replication", "servers": {}}
        assert applier.offer(dict(template, epoch=ahead)) == "resync"
        assert applier.applied == recovered.recovered_epoch
        # the snapshot fallback then converges the recovered reader
        applier.resync(ahead, snapshot_stores(writer))
        assert applier.applied == ahead
        for key in DEFAULT_SCHEMES:
            assert _masks(recovered, key) == _masks(writer, key)


class TestDurableBusSync:
    """A recovered reader catches up incrementally over the writer pipe."""

    def test_recovered_reader_syncs_from_deltas_not_a_snapshot(self):
        async def scenario():
            with tempfile.TemporaryDirectory() as tmp:
                data_dir = os.path.join(tmp, "data")
                writer_svc = LookupService(_log_config(data_dir))
                bus = WriterBus(writer_svc, os.path.join(tmp, "bus.sock"))
                await bus.start()
                try:
                    # two epochs land while no reader is up; the journal
                    # holds their mutations and epoch markers
                    await _forward(
                        bus,
                        _send("full_replication", AddRequest(entry=Entry("zz-a")))
                    )
                    await _forward(
                        bus,
                        _send("full_replication", AddRequest(entry=Entry("zz-b")))
                    )
                    assert bus.epoch == 2
                    # a respawned reader recovers from the same journal...
                    reader_svc = LookupService(
                        _log_config(data_dir, store_read_only=True)
                    )
                    assert reader_svc.recovered
                    assert reader_svc.recovered_epoch == 2
                    fwd = WriteForwarder(reader_svc, os.path.join(tmp, "bus.sock"))
                    await fwd.start()
                    try:
                        # ...and its boot sync found nothing missing:
                        # watermark already at the bus epoch, stores equal
                        assert fwd.applier.applied == bus.epoch
                        for key in writer_svc.strategies:
                            assert _masks(reader_svc, key) == _masks(
                                writer_svc, key
                            )
                        # a post-boot mutation still reaches it live
                        await _forward(
                            bus,
                            _send(
                                "full_replication",
                                AddRequest(entry=Entry("zz-c")),
                            )
                        )
                        deadline = asyncio.get_running_loop().time() + 5
                        while asyncio.get_running_loop().time() < deadline:
                            if fwd.applier.applied == bus.epoch:
                                break
                            await asyncio.sleep(0.01)
                        assert _masks(reader_svc, "full_replication") == _masks(
                            writer_svc, "full_replication"
                        )
                    finally:
                        await fwd.stop()
                finally:
                    await bus.stop()

        run(scenario())

    def test_restarted_bus_resumes_the_epoch_sequence(self):
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = os.path.join(tmp, "data")
            crashed = LookupService(_log_config(data_dir))
            crashed.journal.record_epoch("full_replication", 9)
            crashed.journal.close()
            reborn = LookupService(_log_config(data_dir))
            bus = WriterBus(reborn, os.path.join(tmp, "bus.sock"))
            # the epoch counter picks up where the journal left off, so
            # recovered readers' watermarks stay comparable
            assert bus.epoch == 9
