"""The ``lookup_all`` == ``partial_lookup(0)`` contract, per strategy.

Target 0 is the explicit "fetch everything" request: no target can be
met, so the client walks the strategy's full contact order and every
per-server answer is the entire store (``MemoryBackend.sample`` treats
``count <= 0`` as "all").  See
:meth:`repro.strategies.base.PlacementStrategy.lookup_all`.
"""

from __future__ import annotations

import pytest

from repro.cluster.cluster import Cluster
from repro.core.entry import make_entries
from repro.strategies.fixed import FixedX
from repro.strategies.full_replication import FullReplication
from repro.strategies.hashing import HashY
from repro.strategies.random_server import RandomServerX
from repro.strategies.round_robin import RoundRobinY

SCHEMES = {
    "full_replication": lambda cluster: FullReplication(cluster),
    "fixed": lambda cluster: FixedX(cluster, x=20),
    "random_server": lambda cluster: RandomServerX(cluster, x=20),
    "round_robin": lambda cluster: RoundRobinY(cluster, y=2),
    "hash": lambda cluster: HashY(cluster, y=2),
}


def _placed(name, seed=11):
    cluster = Cluster(10, seed=seed)
    strategy = SCHEMES[name](cluster)
    entries = make_entries(100)
    strategy.place(entries)
    return cluster, strategy, entries


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_lookup_all_is_partial_lookup_zero(name):
    _, strategy, _ = _placed(name)
    all_entries = strategy.lookup_all()
    # Same draw-free contract from the result side: target 0 never
    # trims the merged answer, so the sets must coincide.
    assert all_entries == set(strategy.partial_lookup(0).entries)


@pytest.mark.parametrize("name", ["random_server", "round_robin", "hash"])
def test_lookup_all_returns_coverage_set_for_full_walk_schemes(name):
    cluster, strategy, _ = _placed(name)
    assert strategy.lookup_all() == cluster.coverage_set(strategy.key)


@pytest.mark.parametrize("name", ["full_replication", "fixed"])
def test_lookup_all_single_contact_schemes_see_one_equal_store(name):
    # max_servers=1 schemes fetch one server's store — which equals
    # their coverage set, because every server stores the same subset.
    cluster, strategy, _ = _placed(name)
    assert strategy.lookup_all() == cluster.coverage_set(strategy.key)


def test_lookup_all_skips_failed_servers():
    cluster, strategy, _ = _placed("round_robin")
    cluster.fail(3)
    assert strategy.lookup_all() == cluster.coverage_set(strategy.key)
