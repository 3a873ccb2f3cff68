"""Clients accept a commit from f+1 matching replica outcome reports.

The leader's :class:`CommitReply` used to be a single point of failure: a
leader that died immediately after its cluster certified (and every replica
applied) the outcome stranded the client until its commit timeout.  Now
every replica of the coordinator cluster reports each client-visible
outcome it applies (:class:`ReplicaCommitReply`), and the client accepts
once ``f + 1`` of them agree — classic PBFT client behaviour, independent
of the failure detector.
"""

from __future__ import annotations

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.common.types import TxnStatus
from repro.core.client import _CommitQuorum


def make_system(**overrides):
    from repro.core.system import TransEdgeSystem

    defaults = dict(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=64,
        batch=BatchConfig(max_size=4, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        checkpoint=CheckpointConfig(enabled=True, interval_batches=5, retention_batches=5),
    )
    defaults.update(overrides)
    return TransEdgeSystem(SystemConfig(**defaults))


def crash_leader_before_reply(system, partition=0):
    """The leader dies right after delivery, before answering any client.

    Patching the leader-role hook (not ``deliver``) means the leader's own
    replica-level bookkeeping and outcome report have already happened —
    the crash window is exactly "certified everywhere, reply never sent".
    """
    leader = system.replicas[system.topology.leader(partition)]
    original = leader.leader_role.on_batch_delivered

    def dying(seq, batch, header):
        if batch.local_txns or batch.committed:
            system.crash_replica(leader.node_id)
            return
        original(seq, batch, header)

    leader.leader_role.on_batch_delivered = dying
    return leader


class TestCommitReplyQuorum:
    def test_commit_survives_leader_death_before_reply(self):
        # The dead leader never answers and the client never times out: only
        # the f+1 replica reports can have produced the commit it sees.
        system = make_system()
        client = system.create_client("c", commit_timeout_ms=60_000.0)
        key = system.keys_of_partition(0)[0]
        crash_leader_before_reply(system)

        results = []

        def body():
            result = yield from client.read_write_txn([], {key: b"v"})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()

        assert len(results) == 1
        assert results[0].status is TxnStatus.COMMITTED
        assert client.stats.timeouts == 0
        assert client.stats.replica_quorum_commits == 1
        # Quorum acceptance resolved at delivery time, not timeout time.
        assert results[0].latency_ms < 1_000.0
        # Followers reported the outcome (f+1 needed 2 of the 3 survivors).
        assert system.counters().replica_replies_sent >= 2

    def test_quorum_ignores_reports_from_other_clusters(self):
        # A single report from the wrong partition (or a minority of one)
        # must never satisfy the quorum: with f=1, acceptance needs two
        # distinct coordinator-cluster replicas agreeing.
        system = make_system()
        client = system.create_client("c")
        entry_txn = "t-foreign"
        quorum = client._commit_quorums[entry_txn] = _CommitQuorum(coordinator=0, request_id="req-1")

        from repro.core.messages import ReplicaCommitReply

        wrong_partition = ReplicaCommitReply(
            txn_id=entry_txn,
            partition=1,
            status=TxnStatus.COMMITTED,
            commit_batch=3,
        )
        members1 = system.topology.members(1)
        client._on_replica_commit_reply(wrong_partition, members1[0])
        assert quorum.outcome is None

        right = ReplicaCommitReply(
            txn_id=entry_txn,
            partition=0,
            status=TxnStatus.COMMITTED,
            commit_batch=3,
        )
        members0 = system.topology.members(0)
        # A repeat vote from the same replica is one voter, not two.
        client._on_replica_commit_reply(right, members0[0])
        client._on_replica_commit_reply(right, members0[0])
        assert quorum.outcome is None
        client._on_replica_commit_reply(right, members0[1])
        assert quorum.outcome == (TxnStatus.COMMITTED, 3, "")
        assert client.stats.replica_quorum_commits == 1

    def test_distributed_commit_also_accepted_by_quorum(self):
        # A cross-partition transaction: the coordinator cluster's replicas
        # report the 2PC outcome once the commit record lands in a batch.
        system = make_system()
        client = system.create_client("c", commit_timeout_ms=60_000.0)
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        coordinator = client._coordinator_for([0, 1])
        crash_leader_before_reply(system, partition=coordinator)

        results = []

        def body():
            result = yield from client.read_write_txn([], {key0: b"a", key1: b"b"})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()

        assert len(results) == 1
        assert results[0].status is TxnStatus.COMMITTED
        assert client.stats.timeouts == 0
        assert client.stats.replica_quorum_commits == 1
