"""State-size-aware processing-cost model.

The old model charged a flat ``merkle_proof_ms`` per proof, which made
simulated service time blind to both the partition size and the archive fast
path.  Now proofs cost O(log K) (one root path) and a round-2 snapshot
request that the archive cannot answer additionally pays the O(K) tree
rebuild — so simulated throughput reflects the same asymmetry the wall-clock
``perf`` experiment measures.
"""

from __future__ import annotations

import pytest

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    CostConfig,
    LatencyConfig,
    PerfConfig,
    SystemConfig,
)
from repro.common.ids import NO_BATCH
from repro.core.messages import ReadOnlyRequest, SnapshotRequest
from repro.core.system import TransEdgeSystem


class TestCostConfigHelpers:
    def test_proof_cost_scales_with_tree_depth(self):
        costs = CostConfig()
        assert costs.merkle_proof_cost_ms(1_000) == pytest.approx(
            costs.merkle_proof_per_level_ms * 10
        )
        assert costs.merkle_proof_cost_ms(8) == pytest.approx(
            costs.merkle_proof_per_level_ms * 3
        )
        # Tiny trees still cost one level; never zero or negative.
        assert costs.merkle_proof_cost_ms(1) == costs.merkle_proof_per_level_ms
        assert costs.merkle_proof_cost_ms(0) == costs.merkle_proof_per_level_ms

    def test_default_reproduces_old_flat_charge_at_1000_keys(self):
        # The old model charged a flat 0.004 ms; the per-level default is
        # calibrated so a 1000-key partition (10 levels) costs the same.
        assert CostConfig().merkle_proof_cost_ms(1_000) == pytest.approx(0.004)

    def test_rebuild_cost_is_linear(self):
        costs = CostConfig()
        assert costs.tree_rebuild_cost_ms(1_000) == pytest.approx(
            2_000 * costs.hash_ms
        )
        assert costs.tree_rebuild_cost_ms(100) < costs.tree_rebuild_cost_ms(10_000)


def make_system(initial_keys: int, **overrides) -> TransEdgeSystem:
    defaults = dict(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=initial_keys,
        batch=BatchConfig(max_size=8, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
    )
    defaults.update(overrides)
    return TransEdgeSystem(SystemConfig(**defaults))


class TestReplicaCosts:
    def test_read_only_cost_grows_with_partition_size(self):
        small = make_system(64).leader_replica(0)
        large = make_system(8_192).leader_replica(0)
        request = ReadOnlyRequest(keys=("k1", "k2", "k3"))
        assert large.processing_cost_ms(request) > small.processing_cost_ms(request)

    def test_snapshot_served_by_archive_skips_rebuild_charge(self):
        system = make_system(256)
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:4]

        def body():
            for i in range(6):
                yield from client.read_write_txn([], {keys[i % 4]: f"v{i}".encode()})

        client.spawn(body())
        system.run_until_idle()
        replica = system.leader_replica(0)
        recent = replica.last_header.number
        request = SnapshotRequest(keys=(keys[0],), required_prepare_batch=NO_BATCH)
        fast_cost = replica.processing_cost_ms(request)
        # The archive answers for the earliest satisfying header: no O(K)
        # rebuild term, so the cost stays far below one hash per key.
        assert replica.merkle.archive_covers(recent)
        assert fast_cost < replica.config.costs.tree_rebuild_cost_ms(len(replica.merkle))

    def test_snapshot_past_the_archive_window_pays_rebuild(self):
        system = make_system(256, perf=PerfConfig(archive_max_batches=1))
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:4]

        def body():
            for i in range(6):
                yield from client.read_write_txn([], {keys[i % 4]: f"v{i}".encode()})

        client.spawn(body())
        system.run_until_idle()
        replica = system.leader_replica(0)
        request = SnapshotRequest(keys=(keys[0],), required_prepare_batch=NO_BATCH)
        cost = replica.processing_cost_ms(request)
        rebuild = replica.config.costs.tree_rebuild_cost_ms(len(replica.merkle))
        # The earliest satisfying header is long out of a one-batch archive.
        assert not replica.merkle.archive_covers(replica.headers[0].number)
        assert cost >= rebuild

    def test_archive_vs_rebuild_cost_gap_mirrors_perf_baseline(self):
        # The same deployment, same request: an archive too small to cover
        # the requested batch must make the modelled service time strictly
        # larger (that is the whole point of charging the rebuild).
        archived = make_system(1_024)
        bare = make_system(1_024, perf=PerfConfig(archive_max_batches=1))
        for system in (archived, bare):
            client = system.create_client("w")
            keys = system.keys_of_partition(0)[:4]

            def body(c=client, ks=keys):
                for i in range(6):
                    yield from c.read_write_txn([], {ks[i % 4]: f"v{i}".encode()})

            client.spawn(body())
            system.run_until_idle()
        request = SnapshotRequest(
            keys=(archived.keys_of_partition(0)[0],), required_prepare_batch=NO_BATCH
        )
        fast = archived.leader_replica(0).processing_cost_ms(request)
        slow = bare.leader_replica(0).processing_cost_ms(request)
        assert slow > 5 * fast
