"""Property-based round-trip tests for cluster snapshots."""

import random
import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.messages import AddRequest, DeleteRequest
from repro.cluster.snapshots import restore_cluster, snapshot_cluster
from repro.core.entry import Entry
from repro.net.codec import encode_message
from repro.net.service import DEFAULT_SCHEMES, LookupService, ServiceConfig
from repro.strategies.registry import create_strategy

SCHEMES = [
    ("full_replication", {}),
    ("fixed", {"x": 8}),
    ("random_server", {"x": 8}),
    ("round_robin", {"y": 2}),
    ("hash", {"y": 2}),
]


def _payload(index):
    """Every third entry payload-free, the rest each a payload of its own."""
    return None if index % 3 == 0 else {"port": index, "tags": [index % 2]}


@st.composite
def populated_clusters(draw):
    scheme_index = draw(st.integers(0, len(SCHEMES) - 1))
    n = draw(st.integers(min_value=2, max_value=8))
    h = draw(st.integers(min_value=1, max_value=25))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    updates = draw(st.integers(min_value=0, max_value=10))
    deletes = draw(st.sets(st.integers(0, h - 1), max_size=h // 2))
    failed = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return scheme_index, n, h, seed, updates, deletes, failed


def _held(server, key):
    """A store as it lists its entries: ids and payloads, in order."""
    return [(e.entry_id, e.payload) for e in server.store(key)]


def _state(server, key):
    return {k: v for k, v in server.state(key).items() if k != "migrations"}


def assert_same_cluster(restored, original, keys):
    """Equal stores (order, payloads, indices), strategy states, seeded
    samples, liveness and RNG, server by server."""
    assert restored.alive_ids() == original.alive_ids()
    assert restored.rng.getstate() == original.rng.getstate()
    for key in keys:
        for mine, theirs in zip(restored.servers, original.servers):
            assert _held(mine, key) == _held(theirs, key)
            assert mine.store(key).indices() == theirs.store(key).indices()
            assert _state(mine, key) == _state(theirs, key)
            for count in (1, 3):
                drawn = [
                    [(e.entry_id, e.payload) for e in server.store(key).sample(
                        count, random.Random(count)
                    )]
                    for server in (mine, theirs)
                ]
                assert drawn[0] == drawn[1]


@given(populated_clusters())
@settings(max_examples=40, deadline=None)
def test_snapshot_round_trip_preserves_everything(setup):
    scheme_index, n, h, seed, updates, deletes, failed = setup
    name, params = SCHEMES[scheme_index]
    if params.get("y", 1) > n:
        params = dict(params, y=n)
    cluster = Cluster(n, seed=seed)
    strategy = create_strategy(name, cluster, **params)
    strategy.place([Entry(f"v{i}", _payload(i)) for i in range(h)])
    for index in range(updates):
        strategy.add(Entry(f"u{index}", _payload(index)))
    for index in sorted(deletes):
        strategy.delete(Entry(f"v{index}"))
    for server_id in failed:
        cluster.fail(server_id)

    snapshot = snapshot_cluster(cluster)
    fresh = Cluster(n, seed=seed + 1)
    restore_cluster(snapshot, fresh)

    assert_same_cluster(fresh, cluster, ["k"])
    assert fresh.coverage("k", alive_only=False) == cluster.coverage(
        "k", alive_only=False
    )
    # Snapshots are pure data: restoring twice is idempotent.
    again = Cluster(n, seed=seed + 2)
    restore_cluster(snapshot_cluster(fresh), again)
    assert_same_cluster(again, cluster, ["k"])
    assert snapshot_cluster(again) == snapshot


def _send(key, message, server):
    return {"op": "send", "server": server, "key": key, "message": encode_message(message)}


def test_a_recovered_data_dir_equals_a_restored_snapshot(tmp_path):
    """Journal ≡ snapshot: a recovery boot and ``restore_cluster`` of the
    live cluster's snapshot give the same cluster."""
    config = dict(server_count=8, entry_count=12, seed=3, store="log")
    live = LookupService(ServiceConfig(data_dir=str(tmp_path / "live"), **config))
    for key in sorted(DEFAULT_SCHEMES):
        for step, message in enumerate(
            (
                AddRequest(entry=Entry("w1", {"port": 1})),
                DeleteRequest(entry=Entry("v2")),
                AddRequest(entry=Entry("v2", {"port": 7})),
                AddRequest(entry=Entry("w2")),
            )
        ):
            assert live.handle_envelope(_send(key, message, step % 8))["ok"]
    live.journal.close()
    shutil.copytree(tmp_path / "live", tmp_path / "crashed")
    recovered = LookupService(ServiceConfig(data_dir=str(tmp_path / "crashed"), **config))
    assert recovered.recovered
    restored = restore_cluster(snapshot_cluster(live.cluster), Cluster(8))
    assert_same_cluster(recovered.cluster, restored, sorted(DEFAULT_SCHEMES))
    assert_same_cluster(restored, live.cluster, sorted(DEFAULT_SCHEMES))
    recovered.journal.close()
