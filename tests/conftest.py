"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.cluster.cluster import Cluster
from repro.core.entry import make_entries


@pytest.fixture
def cluster():
    """A 10-server seeded cluster, the paper's canonical n."""
    return Cluster(10, seed=12345)


@pytest.fixture
def small_cluster():
    """A 4-server seeded cluster for exact/brute-force tests."""
    return Cluster(4, seed=999)


@pytest.fixture
def entries100():
    """The paper's canonical 100-entry population v1..v100."""
    return make_entries(100)


@pytest.fixture
def entries10():
    return make_entries(10)


@pytest.fixture
def rng():
    return random.Random(777)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running statistical test (deselect with -m 'not slow')"
    )
    # Tier-1 is a deterministic gate: every run draws the same examples.
    # A run given ``--hypothesis-seed`` explores instead (one CI leg
    # does, on a fresh seed) — ``derandomize`` would outrank the seed.
    seeded = config.getoption("--hypothesis-seed", default=None) is not None
    settings.register_profile(
        "tier1", derandomize=not seeded, deadline=None, print_blob=True
    )
    settings.load_profile("tier1")
