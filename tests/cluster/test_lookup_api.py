"""The unified ``Client.lookup`` API: options, tracing, metrics."""

import pytest

from repro.cluster.client import (
    Client,
    LookupOptions,
    RetryPolicy,
    Stride,
)
from repro.cluster.cluster import Cluster
from repro.cluster.messages import LookupRequest
from repro.cluster.server import ServerLogic
from repro.core.entry import make_entries
from repro.core.exceptions import InvalidParameterError
from repro.obs import MetricsRegistry, Tracer


class _StockLogic(ServerLogic):
    """Every server answers from its own disjoint five-entry stock."""

    def handle(self, server, message, network):
        assert isinstance(message, LookupRequest)
        stock = make_entries(5, start=1 + 5 * server.server_id)
        if message.target <= 0 or message.target >= len(stock):
            return list(stock)
        return stock[: message.target]


def make_cluster(size=10, seed=42):
    cluster = Cluster(size, seed=seed)
    logic = _StockLogic()
    for server in cluster.servers:
        server.install_logic("k", logic)
    return cluster


class TestUnifiedLookup:
    def test_default_order_is_random(self):
        result = Client(make_cluster()).lookup("k", 8)
        assert len(result) == 8
        assert result.success

    def test_stride_order_draws_start_from_cluster_rng(self):
        # The Stride path must consume exactly one random_server_id
        # draw, like the legacy method — a seeded replay depends on it.
        probe = make_cluster()
        expected_start = probe.rng.randrange(probe.size)
        cluster = make_cluster()
        result = Client(cluster).lookup("k", 50, order=Stride(1))
        contacted = list(result.servers_contacted)
        assert contacted[0] == expected_start
        n = cluster.size
        assert contacted == [(expected_start + i) % n for i in range(n)]

    def test_prebuilt_options_object(self):
        options = LookupOptions(order=Stride(2), per_server_target=2)
        result = Client(make_cluster()).lookup("k", 6, options=options)
        assert len(result) == 6
        # 2 fresh entries per server -> 3 servers contacted.
        assert result.lookup_cost == 3

    def test_options_conflicts_with_individual_keywords(self):
        client = Client(make_cluster())
        with pytest.raises(InvalidParameterError):
            client.lookup(
                "k", 5, max_servers=1, options=LookupOptions()
            )

    def test_invalid_order_rejected(self):
        with pytest.raises(InvalidParameterError):
            LookupOptions(order="stride")
        with pytest.raises(InvalidParameterError):
            Client(make_cluster()).lookup("k", 5, order="zigzag")

    def test_stride_validation(self):
        with pytest.raises(InvalidParameterError):
            Stride(0)
        with pytest.raises(InvalidParameterError):
            Stride(-2)
        assert str(Stride(4)) == "stride(4)"

    def test_per_call_retry_override(self):
        cluster = make_cluster(size=4)
        for server_id in (1, 2, 3):
            cluster.fail(server_id)
        client = Client(
            cluster, retry_policy=RetryPolicy(max_attempts=3)
        )
        # The override forces the paper's single-pass behaviour.
        single = client.lookup(
            "k", 20, retry=RetryPolicy(max_attempts=1)
        )
        assert single.retries == 0
        assert single.degraded

    def test_removed_shims_raise_with_hint(self):
        # The tombstones are gone: the long-removed entry points are
        # missing attributes like any other.
        client = Client(make_cluster())
        with pytest.raises(AttributeError, match="no attribute 'lookup_random'"):
            client.lookup_random("k", 5)
        with pytest.raises(AttributeError, match="no attribute 'lookup_stride'"):
            client.lookup_stride("k", 5, 2)
        with pytest.raises(AttributeError, match="no attribute"):
            client.lookup_backwards


class TestLookupObservability:
    def test_span_per_lookup_with_contact_events(self):
        tracer = Tracer(run_id="api")
        client = Client(make_cluster(), tracer=tracer)
        result = client.lookup("k", 8)
        (span,) = tracer.spans("lookup")
        assert span.fields["order"] == "random"
        assert span.fields["entries"] == 8
        assert span.fields["messages"] == result.messages
        contacts = tracer.events("contact")
        assert len(contacts) == result.messages
        assert all(c.span_id == span.span_id for c in contacts)

    def test_failed_contacts_traced_with_outcome(self):
        tracer = Tracer(run_id="api")
        cluster = make_cluster(size=3)
        cluster.fail(1)
        client = Client(cluster, tracer=tracer)
        client.lookup("k", 15)
        outcomes = {
            c.fields["server"]: c.fields["outcome"]
            for c in tracer.events("contact")
        }
        assert outcomes[1] == "failed"
        assert sum(1 for o in outcomes.values() if o == "delivered") == 2

    def test_per_call_tracer_overrides_client_tracer(self):
        default = Tracer(run_id="default")
        override = Tracer(run_id="override")
        client = Client(make_cluster(), tracer=default)
        client.lookup("k", 5, tracer=override)
        assert len(default) == 0
        assert len(override.spans("lookup")) == 1

    def test_explicit_collect_orders_trace_as_explicit(self):
        tracer = Tracer(run_id="api")
        client = Client(make_cluster(), tracer=tracer)
        client.collect("k", 5, order=[0, 1, 2])
        (span,) = tracer.spans("lookup")
        assert span.fields["order"] == "explicit"

    def test_metrics_publishing(self):
        metrics = MetricsRegistry()
        client = Client(make_cluster(), metrics=metrics)
        for _ in range(4):
            client.lookup("k", 8)
        snapshot = metrics.snapshot()
        assert snapshot["client.lookups"] == 4
        assert snapshot["client.lookup_cost.count"] == 4
        assert snapshot["client.lookup_cost.mean"] == 2.0

    def test_degraded_lookup_counts(self):
        metrics = MetricsRegistry()
        cluster = make_cluster(size=2)
        client = Client(cluster, metrics=metrics)
        client.lookup("k", 50)  # only 10 entries exist
        assert metrics.snapshot()["client.degraded"] == 1

    def test_no_tracer_no_records_no_rng_drift(self):
        # Identically seeded clusters, one traced, one not: results equal.
        traced = Client(make_cluster(), tracer=Tracer(run_id="x"))
        plain = Client(make_cluster())
        assert traced.lookup("k", 8) == plain.lookup("k", 8)


class TestRetryPolicyValidation:
    def test_negative_jitter_rejected(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(jitter=-0.1)

    def test_jitter_above_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(jitter=1.5)

    def test_jitter_bounds_accepted(self):
        assert RetryPolicy(jitter=0.0).jitter == 0.0
        assert RetryPolicy(jitter=1.0).jitter == 1.0
