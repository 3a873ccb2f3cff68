"""Clients proactively fail over to a new leader when a view change lands.

Before this change a client whose request was in flight towards a crashed
leader only learned its fate by waiting out the request/commit timeout.
Now the topology notifies subscribed clients of leader changes and pending
leader-routed requests are re-sent to the successor; the new leader answers
duplicates from its replicated decision records instead of re-admitting
(and double-applying) them.
"""

from __future__ import annotations

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.common.ids import NO_BATCH
from repro.common.types import TxnStatus
from repro.core.messages import CommitReply, CommitRequest
from repro.core.transaction import TxnPayload
from repro.simnet.proc import Call


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


def run_txn(client, body_fn):
    out = []

    def body():
        result = yield from body_fn()
        out.append(result)

    client.spawn(body())
    client.env.simulator.run_until_idle()
    return out[0]


class TestProactiveCommitFailover:
    def test_pending_commit_fails_over_at_view_change_not_timeout(self):
        # Two clients, both parked on a dead leader.  The first client's
        # commit timeout triggers the complaint-driven view change (that one
        # timeout is unavoidable — the leader died holding the only copy of
        # the reply duty); the second client's request must then resolve
        # *at the view change* through the proactive re-send, not by waiting
        # out its own, much longer timeout.
        system = make_system()
        trigger = system.create_client("trigger", commit_timeout_ms=300.0)
        parked = system.create_client("parked", commit_timeout_ms=60_000.0)
        keys = system.keys_of_partition(0)[:4]
        old_leader = system.topology.leader(0)
        system.crash_replica(old_leader)

        trigger_results = []
        parked_results = []

        def trigger_body():
            for i in range(3):
                result = yield from trigger.read_write_txn([], {keys[0]: f"t{i}".encode()})
                trigger_results.append(result)

        def parked_body():
            result = yield from parked.read_write_txn([], {keys[1]: b"p0"})
            parked_results.append(result)

        trigger.spawn(trigger_body())
        parked.spawn(parked_body())
        system.run_until_idle()

        assert system.topology.leader(0) != old_leader
        # The parked client never timed out: its pending request was re-sent
        # to the new leader the moment the topology recorded the rotation.
        assert len(parked_results) == 1
        assert parked_results[0].committed
        assert parked.stats.leader_failovers >= 1
        assert parked.stats.timeouts == 0
        # Only the trigger client's first attempt paid a timeout.
        assert trigger.stats.timeouts == 1
        # Well under the parked client's 60 s timeout.
        assert system.now < 10_000.0

    def test_pending_read_fails_over_with_the_view_change(self):
        system = make_system()
        writer = system.create_client("w", commit_timeout_ms=300.0)
        reader = system.create_client("r", request_timeout_ms=60_000.0)
        keys = system.keys_of_partition(0)[:2]
        old_leader = system.topology.leader(0)
        system.crash_replica(old_leader)

        read_results = []
        write_results = []

        def read_body():
            result = yield from reader.read_only_txn(keys)
            read_results.append(result)

        def write_body():
            # The writer's commit timeout triggers the complaint-driven view
            # change; the reader is parked on the dead leader the whole time.
            for i in range(3):
                result = yield from writer.read_write_txn([], {keys[0]: f"w{i}".encode()})
                write_results.append(result)

        reader.spawn(read_body())
        writer.spawn(write_body())
        system.run_until_idle()

        assert len(read_results) == 1
        assert read_results[0].verified
        assert reader.stats.leader_failovers >= 1
        # Far below the reader's own 60 s request timeout.
        assert system.now < 10_000.0

class TestDuplicateCommitRequests:
    def _client_and_leader(self, system):
        client = system.create_client("w")
        leader = system.topology.leader(0)
        return client, leader

    def test_duplicate_of_committed_local_txn_answers_from_record(self):
        system = make_system()
        client, leader = self._client_and_leader(system)
        keys = system.keys_of_partition(0)[:2]
        first = run_txn(client, lambda: client.read_write_txn([], {keys[0]: b"v1"}))
        assert first.committed

        # Re-send the same transaction (same txn id) as a fresh request —
        # what a client does when it fails over mid-commit.
        batches_before = system.counters().batches_delivered
        txn = TxnPayload(txn_id=first.txn_id, reads={}, writes={keys[0]: b"v1"}, client="w")
        reply = run_txn(
            client,
            lambda: (
                yield Call(leader, CommitRequest(txn=txn), timeout_ms=1_000.0)
            ),
        )
        assert isinstance(reply, CommitReply)
        assert reply.status is TxnStatus.COMMITTED
        assert reply.commit_batch == first.commit_batch
        # Answered from the replicated record: nothing was re-proposed.
        assert system.counters().batches_delivered == batches_before

    def test_duplicate_of_distributed_txn_answers_recorded_decision(self):
        system = make_system()
        client, _ = self._client_and_leader(system)
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        first = run_txn(
            client, lambda: client.read_write_txn([], {key0: b"a", key1: b"b"})
        )
        assert first.committed

        coordinator = client._coordinator_for({0, 1})
        leader = system.topology.leader(coordinator)
        txn = TxnPayload(
            txn_id=first.txn_id, reads={}, writes={key0: b"a", key1: b"b"}, client="w"
        )
        reply = run_txn(
            client,
            lambda: (
                yield Call(leader, CommitRequest(txn=txn), timeout_ms=1_000.0)
            ),
        )
        assert isinstance(reply, CommitReply)
        assert reply.status is TxnStatus.COMMITTED
        assert reply.commit_batch != NO_BATCH

    def test_unknown_txn_still_admitted_normally(self):
        system = make_system()
        client, _ = self._client_and_leader(system)
        keys = system.keys_of_partition(0)[:1]
        result = run_txn(client, lambda: client.read_write_txn([], {keys[0]: b"x"}))
        assert result.committed


class TestPendingRequestTracking:
    """``_pending_leader_requests`` holds exactly the unanswered requests."""

    def test_an_entry_leaves_when_its_wait_settles(self):
        # 100 closed-loop drivers on one client: the old lazy sweep (rebuild
        # the whole dict on every call once it held more than 64 entries)
        # never got it back under 64 here, and left answered requests behind.
        system = make_system(batch=BatchConfig(max_size=50, timeout_ms=2.0), initial_keys=256)
        client = system.create_client("many")
        keys = system.keys_of_partition(0)[:100]
        tracked = client._pending_leader_requests
        committed = []
        in_step = []

        def body(key):
            for round_number in range(2):
                result = yield from client.read_write_txn([], {key: b"v%d" % round_number})
                committed.append(result.committed)
                in_step.append(set(tracked) == set(client._waits_by_request))

        for key in keys:
            client.spawn(body(key))
        system.run_until_idle()

        assert committed == [True] * 200
        assert all(in_step)
        assert client._pending_leader_requests is tracked  # never rebuilt
        assert tracked == {}

    def test_a_timed_out_request_leaves_too(self):
        system = make_system()
        client = system.create_client("w", commit_timeout_ms=300.0)
        key = system.keys_of_partition(0)[0]
        system.crash_replica(system.topology.leader(0))
        # The first attempt times out against the dead leader; the complaint
        # it raises rotates the cluster and a retry commits.
        result = run_txn(client, lambda: client.read_write_txn([], {key: b"x"}))
        assert result.committed and client.stats.timeouts >= 1
        assert client._pending_leader_requests == {}
