"""End-to-end tests of the edge read-proxy tier (``repro.edge``).

A deployment with ``EdgeConfig(enabled=True)`` serves snapshot read-only
transactions through untrusted proxies; everything a proxy returns is
verified by the client exactly like a core reply, so edge-served snapshots
must be byte-identical to direct reads of the same state — including across
checkpoint/GC boundaries and while writers churn the certified headers.
"""

from __future__ import annotations

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    EdgeConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.core.system import TransEdgeSystem


def make_system(**overrides):
    defaults = dict(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=64,
        batch=BatchConfig(max_size=8, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        edge=EdgeConfig(enabled=True, num_proxies=2),
    )
    defaults.update(overrides)
    return TransEdgeSystem(SystemConfig(**defaults))


def run_txn(client, body_fn):
    """Run one generator transaction to completion and return its result."""
    out = []

    def body():
        result = yield from body_fn()
        out.append(result)

    client.spawn(body())
    client.env.simulator.run_until_idle()
    return out[0]


def commit_writes(system, client, writes):
    def body():
        for key, value in writes.items():
            result = yield from client.read_write_txn([], {key: value})
            assert result.committed

    client.spawn(body())
    system.run_until_idle()


class TestEdgeServedReads:
    def test_edge_snapshot_identical_to_direct_read(self):
        system = make_system()
        writer = system.create_client("writer", edge_proxies=())
        edge_client = system.create_client("edge-reader")
        direct_client = system.create_client("direct-reader", edge_proxies=())
        assert edge_client.edge_router is not None
        assert direct_client.edge_router is None

        keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]
        commit_writes(system, writer, {keys[0]: b"alpha", keys[2]: b"beta"})

        # Warm the proxy cache, then read the same keys both ways.
        run_txn(edge_client, lambda: edge_client.read_only_txn(keys))
        edge_result = run_txn(edge_client, lambda: edge_client.read_only_txn(keys))
        direct_result = run_txn(direct_client, lambda: direct_client.read_only_txn(keys))

        assert edge_result.verified and direct_result.verified
        assert edge_result.served_by_edge
        assert not direct_result.served_by_edge
        assert dict(edge_result.values) == dict(direct_result.values)
        assert dict(edge_result.versions) == dict(direct_result.versions)

    def test_repeat_reads_hit_the_cache(self):
        system = make_system()
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]
        for _ in range(3):
            result = run_txn(client, lambda: client.read_only_txn(keys))
            assert result.verified
        counters = system.counters()
        assert counters.edge_cache_hits > 0
        assert counters.edge_reads_served == 3
        assert client.stats.edge_reads_served >= 2  # first read warms the cache

    def test_header_announcements_reach_proxies(self):
        system = make_system()
        writer = system.create_client("writer", edge_proxies=())
        keys = system.keys_of_partition(0)[:3]
        commit_writes(system, writer, {key: b"x" for key in keys})
        counters = system.counters()
        assert counters.headers_announced > 0
        assert counters.edge_announcements_received > 0

    def test_crashed_proxy_falls_back_to_core(self):
        system = make_system(edge=EdgeConfig(enabled=True, num_proxies=1))
        client = system.create_client("reader")
        for proxy in system.proxies:
            proxy.crashed = True
        keys = system.keys_of_partition(0)[:2]
        # The silent proxy costs the client its whole 20 s of patience (the
        # simulator just idles there) before the core answers.
        result = run_txn(client, lambda: client.read_only_txn(keys))
        assert result.verified
        assert not result.served_by_edge
        assert client.stats.edge_fallbacks == 1
        assert 20_000.0 < result.latency_ms < 20_010.0

    def test_stale_cache_refreshes_after_writes(self):
        # Writers advance the certified headers past the lag bound; the
        # proxy must refresh instead of serving arbitrarily old state.
        system = make_system(
            edge=EdgeConfig(enabled=True, num_proxies=1, max_header_lag_batches=1)
        )
        writer = system.create_client("writer", edge_proxies=())
        client = system.create_client("reader")
        partition_keys = system.keys_of_partition(0)
        keys = partition_keys[:2]
        run_txn(client, lambda: client.read_only_txn(keys))  # warm

        # Six separate write transactions: six sealed batches, far past the
        # 1-batch lag bound of the warm context.
        for spare_key in partition_keys[2:7]:
            commit_writes(system, writer, {spare_key: b"filler"})
        commit_writes(system, writer, {keys[0]: b"fresh"})
        result = run_txn(client, lambda: client.read_only_txn(keys))
        assert result.verified
        # The read observes the newest committed value, not the stale cache.
        assert result.values[keys[0]] == b"fresh"

    def test_cache_coherent_across_gc_boundaries(self):
        # Checkpointing prunes core headers/archives while the proxy keeps
        # serving; every edge-served snapshot must stay verified and equal
        # to the core's current state.  Lag bound 0 = refresh on any newer
        # announced header, so edge reads track the core exactly (bounded
        # staleness is exercised separately above).
        system = make_system(
            checkpoint=CheckpointConfig(enabled=True, interval_batches=5, retention_batches=5),
            edge=EdgeConfig(enabled=True, num_proxies=2, max_header_lag_batches=0),
        )
        writer = system.create_client("writer", edge_proxies=())
        client = system.create_client("reader")
        direct = system.create_client("direct", edge_proxies=())
        keys = system.keys_of_partition(0)[:2] + system.keys_of_partition(1)[:2]

        for round_number in range(4):
            commit_writes(
                system,
                writer,
                {key: f"r{round_number}-{key}".encode() for key in keys},
            )
            edge_result = run_txn(client, lambda: client.read_only_txn(keys))
            direct_result = run_txn(direct, lambda: direct.read_only_txn(keys))
            assert edge_result.verified
            assert dict(edge_result.values) == dict(direct_result.values)
        assert system.counters().checkpoints_stable > 0


class TestEdgeDisabled:
    def test_disabled_config_spawns_nothing(self):
        system = make_system(edge=EdgeConfig(enabled=False))
        client = system.create_client("reader")
        assert system.proxies == []
        assert client.edge_router is None
        keys = system.keys_of_partition(0)[:2]
        result = run_txn(client, lambda: client.read_only_txn(keys))
        assert result.verified
        assert not result.served_by_edge
        assert client.stats.edge_reads_attempted == 0
        counters = system.counters()
        assert counters.edge_reads_served == 0
        assert counters.headers_announced == 0

    def test_default_config_has_no_edge_tier(self):
        system = TransEdgeSystem(
            SystemConfig(
                num_partitions=2,
                fault_tolerance=1,
                initial_keys=64,
                batch=BatchConfig(max_size=8, timeout_ms=2.0),
            )
        )
        assert system.proxies == []
