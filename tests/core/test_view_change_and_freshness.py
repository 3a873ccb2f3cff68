"""System-level view change, leader failover and freshness behaviour."""

from __future__ import annotations

import pytest

from repro.bft.byzantine import make_silent
from repro.common.config import BatchConfig, FreshnessConfig, LatencyConfig, SystemConfig
from repro.common.types import TxnStatus
from repro.core.system import TransEdgeSystem


def make_system(**overrides):
    defaults = dict(
        num_partitions=2,
        fault_tolerance=1,
        batch=BatchConfig(max_size=10, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        initial_keys=32,
    )
    defaults.update(overrides)
    return TransEdgeSystem(SystemConfig(**defaults))


class TestLeaderFailover:
    def test_cluster_recovers_after_leader_crash(self):
        system = make_system()
        client = system.create_client("c1")
        key = system.keys_of_partition(0)[0]
        results = []

        # Commit one transaction through the original leader.
        def before():
            result = yield from client.read_write_txn([], {key: b"before-crash"})
            results.append(result)

        client.spawn(before())
        system.run_until_idle()
        assert results[0].committed

        # Crash the leader of partition 0 and have the followers replace it.
        old_leader = system.topology.leader(0)
        make_silent(system.fault_injector, old_leader)
        for replica in system.cluster_replicas(0):
            if replica.node_id != old_leader:
                replica.engine.suspect_leader()
        system.run_until_idle()

        new_leader = system.topology.leader(0)
        assert new_leader != old_leader

        # New transactions are served by the new leader.
        def after():
            result = yield from client.read_write_txn([], {key: b"after-failover"})
            results.append(result)

        client.spawn(after())
        system.run_until_idle()
        assert results[1].committed
        for replica in system.cluster_replicas(0):
            if replica.node_id == old_leader:
                continue
            assert replica.store.latest(key).value == b"after-failover"

    def test_read_only_transactions_survive_failover(self):
        system = make_system()
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:1] + system.keys_of_partition(1)[:1]

        old_leader = system.topology.leader(0)
        make_silent(system.fault_injector, old_leader)
        for replica in system.cluster_replicas(0):
            if replica.node_id != old_leader:
                replica.engine.suspect_leader()
        system.run_until_idle()

        results = []

        def body():
            result = yield from client.read_only_txn(keys)
            results.append(result)

        client.spawn(body())
        system.run_until_idle()
        assert results[0].verified
        assert set(results[0].values) == set(keys)


class TestFreshnessBound:
    def test_client_rejects_snapshots_older_than_its_bound(self):
        # A very tight client staleness bound makes old (but consistent)
        # snapshots unacceptable: verification fails and the value is refused
        # unless another replica has something fresher.
        system = make_system(
            freshness=FreshnessConfig(client_staleness_bound_ms=1.0)
        )
        client = system.create_client("strict-reader")
        keys = system.keys_of_partition(0)[:1]
        results = []

        def body():
            # Let simulated time pass so the genesis snapshot is stale by far
            # more than the 1 ms bound.
            from repro.simnet.proc import Sleep

            yield Sleep(5_000.0)
            result = yield from client.read_only_txn(keys)
            results.append(result)

        client.spawn(body())
        system.run_until_idle()
        assert not results[0].verified
        assert client.stats.read_only_verification_failures > 0

    def test_default_configuration_accepts_recent_snapshots(self):
        system = make_system()
        client = system.create_client("reader")
        keys = system.keys_of_partition(0)[:1]
        results = []

        def body():
            result = yield from client.read_only_txn(keys)
            results.append(result)

        client.spawn(body())
        system.run_until_idle()
        assert results[0].verified


class TestClientRobustness:
    def test_commit_to_non_leader_is_rejected_not_hung(self):
        system = make_system()
        client = system.create_client("c1")
        key = system.keys_of_partition(0)[0]
        follower = system.topology.followers(0)[0]
        results = []

        def body():
            from repro.core.messages import CommitRequest
            from repro.core.transaction import TxnPayload
            from repro.simnet.proc import Call

            txn = TxnPayload(txn_id=client.next_txn_id(), writes={key: b"x"}, client=client.name)
            reply = yield Call(follower, CommitRequest(txn=txn), timeout_ms=10_000)
            results.append(reply)

        client.spawn(body())
        system.run_until_idle()
        assert results[0] is not None
        assert results[0].status is TxnStatus.ABORTED
        assert "leader" in results[0].abort_reason

    def test_transaction_touching_unknown_keys_still_completes(self):
        system = make_system()
        client = system.create_client("c1")
        results = []

        def body():
            result = yield from client.read_write_txn(
                ["never-written-key"], {"brand-new-key": b"v"}
            )
            results.append(result)

        client.spawn(body())
        system.run_until_idle()
        assert results[0].committed
        partition = system.partitioner.partition_of("brand-new-key")
        assert system.leader_replica(partition).store.latest("brand-new-key").value == b"v"
