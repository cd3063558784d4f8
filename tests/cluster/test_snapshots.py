"""Unit tests for cluster placement snapshots."""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.snapshots import (
    load_snapshot,
    restore_cluster,
    save_snapshot,
    snapshot_cluster,
)
from repro.core.entry import Entry, make_entries
from repro.core.exceptions import InvalidParameterError
from repro.strategies.round_robin import RoundRobinY


def _round_robin_cluster(seed=5):
    cluster = Cluster(10, seed=seed)
    strategy = RoundRobinY(cluster, y=2)
    strategy.place(make_entries(30))
    strategy.add(Entry("extra"))
    strategy.delete(Entry("v3"))
    return cluster, strategy


class TestSnapshot:
    def test_round_trip_in_memory(self):
        cluster, _ = _round_robin_cluster()
        snapshot = snapshot_cluster(cluster)
        fresh = Cluster(10, seed=99)
        restore_cluster(snapshot, fresh)
        assert fresh.placement("k") == cluster.placement("k")
        assert fresh.storage_cost("k") == cluster.storage_cost("k")

    def test_round_trip_via_file(self, tmp_path):
        cluster, _ = _round_robin_cluster()
        path = save_snapshot(cluster, tmp_path / "snap.json")
        fresh = Cluster(10, seed=1)
        load_snapshot(path, fresh)
        assert fresh.placement("k") == cluster.placement("k")

    def test_failure_flags_restored(self, tmp_path):
        cluster, _ = _round_robin_cluster()
        cluster.fail(4)
        path = save_snapshot(cluster, tmp_path / "snap.json")
        fresh = Cluster(10, seed=1)
        load_snapshot(path, fresh)
        assert not fresh.server(4).alive
        assert fresh.failed_count == 1

    def test_strategy_resumes_on_restored_cluster(self, tmp_path):
        """Counters/positions survive, so the protocol keeps working."""
        cluster, _ = _round_robin_cluster()
        path = save_snapshot(cluster, tmp_path / "snap.json")

        fresh = Cluster(10, seed=2)
        load_snapshot(path, fresh)
        resumed = RoundRobinY(fresh, y=2)  # reattach the strategy logic
        # The restored head/tail let adds and migration deletes work.
        resumed.add(Entry("post-restore"))
        resumed.delete(Entry("v10"))
        counts = fresh.replica_counts("k")
        assert all(count == 2 for count in counts.values())
        assert Entry("post-restore") in resumed.lookup_all()
        assert Entry("v10") not in resumed.lookup_all()

    def test_size_mismatch_rejected(self):
        cluster, _ = _round_robin_cluster()
        snapshot = snapshot_cluster(cluster)
        with pytest.raises(InvalidParameterError, match="servers"):
            restore_cluster(snapshot, Cluster(5, seed=1))

    def test_version_checked(self):
        with pytest.raises(InvalidParameterError, match="format version"):
            restore_cluster({"format_version": 9, "size": 10}, Cluster(10))

    def test_restore_wipes_previous_content(self):
        cluster, _ = _round_robin_cluster()
        snapshot = snapshot_cluster(cluster)
        target = Cluster(10, seed=3)
        target.server(0).store("other").add(Entry("junk"))
        restore_cluster(snapshot, target)
        assert target.storage_cost("other") == 0

    def test_payloads_and_index_order_survive(self):
        cluster = Cluster(4, seed=1)
        strategy = RoundRobinY(cluster, y=2)
        strategy.place([Entry(f"v{i}", {"port": i}) for i in range(9)])
        strategy.delete(Entry("v3"))
        strategy.add(Entry("v3", "back"))
        fresh = restore_cluster(snapshot_cluster(cluster), Cluster(4, seed=8))
        for mine, theirs in zip(fresh.servers, cluster.servers):
            assert [(e.entry_id, e.payload) for e in mine.store("k")] == [
                (e.entry_id, e.payload) for e in theirs.store("k")
            ]
            assert mine.store("k").indices() == theirs.store("k").indices()
        assert fresh.rng.getstate() == cluster.rng.getstate()

    def test_a_format_1_snapshot_still_loads(self):
        snapshot = {
            "format_version": 1,
            "size": 3,
            "servers": [
                {"server_id": 0, "alive": True, "stores": {"k": ["b", "a"]},
                 "state": {"k": {"tail": 2}}},
                {"server_id": 1, "alive": False, "stores": {"k": ["a", "c"]},
                 "state": {"k": {}}},
                {"server_id": 2, "alive": True, "stores": {}, "state": {}},
            ],
        }
        fresh = restore_cluster(snapshot, Cluster(3))
        # Each id interned where a format-1 restore met it first.
        assert [e.entry_id for e in fresh.server(0).store("k")] == ["b", "a"]
        assert fresh.server(1).store("k").indices() == [1, 2]
        assert fresh.server(0).state("k") == {"tail": 2}
        assert fresh.alive_ids() == [0, 2]

    def test_a_cluster_with_another_index_order_is_refused(self):
        cluster, _ = _round_robin_cluster()
        target = Cluster(10)
        target.interner("k").intern(Entry("zz"))
        with pytest.raises(ValueError, match="interned at index"):
            restore_cluster(snapshot_cluster(cluster), target)

    def test_a_snapshot_shares_no_state_with_either_cluster(self):
        # Round-Robin edits its positions map in place.
        cluster, strategy = _round_robin_cluster()
        snapshot = snapshot_cluster(cluster)
        frozen = json.dumps(snapshot, sort_keys=True)
        strategy.add(Entry("after"))
        fresh = restore_cluster(snapshot, Cluster(10))
        RoundRobinY(fresh, y=2).add(Entry("later"))
        assert json.dumps(snapshot, sort_keys=True) == frozen
