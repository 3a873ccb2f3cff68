"""Corroborated leader complaints: a lying client cannot vote out a leader.

``LeaderComplaint`` used to be taken at face value — any node could allege
"the leader is not answering" and followers would arm the progress monitor
on its word alone, so a byzantine *client* could churn an otherwise idle
healthy cluster's leadership (the residual risk the progress monitor's
docstring used to carry).  Now complaints must carry the unanswered
transaction and followers corroborate them the classic PBFT way: forward
the request to the leader (``ComplaintProbe``) and only sustain suspicion
while the forwarded request goes unanswered.  A live leader acks the probe
and the complaint evaporates; a dead one stays silent and is voted out
exactly as before.
"""

from __future__ import annotations

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.core.messages import LeaderComplaint
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload


def make_system(**overrides) -> TransEdgeSystem:
    defaults = dict(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=64,
        batch=BatchConfig(max_size=4, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        checkpoint=CheckpointConfig(
            enabled=True, interval_batches=5, retention_batches=5
        ),
    )
    defaults.update(overrides)
    return TransEdgeSystem(SystemConfig(**defaults))


def fabricated_txn(system: TransEdgeSystem, txn_id: str) -> TxnPayload:
    """A plausible-looking transaction that was never submitted to anyone."""
    key = system.keys_of_partition(0)[0]
    return TxnPayload(txn_id=txn_id, reads={}, writes={key: b"x"}, client="liar")


def complain_to_cluster(system: TransEdgeSystem, sender, message) -> None:
    for member in system.topology.members(0):
        sender.send(member, message)


class TestLyingClientCannotChurnLeadership:
    def test_fabricated_complaints_do_not_rotate_a_healthy_idle_cluster(self):
        system = make_system()
        liar = system.create_client("liar")
        old_leader = system.topology.leader(0)

        # Three separate complaint storms, each about a transaction the
        # leader never saw.  Followers forward each to the leader; the
        # leader's ack refutes the complaint before the stall timer votes.
        for round_no in range(3):
            complaint = LeaderComplaint(
                partition=0, txn=fabricated_txn(system, f"fake-{round_no}")
            )
            complain_to_cluster(system, liar, complaint)
            system.run_until_idle()

        counters = system.counters()
        assert counters.leader_suspicions == 0
        assert counters.view_changes == 0
        assert system.topology.leader(0) == old_leader
        # The complaints were corroborated and refuted, not merely dropped:
        # probes were cleared by acks on every follower.
        for member in system.topology.members(0):
            monitor = system.replicas[member].progress_monitor
            assert monitor.state.probes == set()

class TestDismissedComplaints:
    def test_evidence_free_complaint_is_dismissed(self):
        system = make_system()
        liar = system.create_client("liar")
        complain_to_cluster(system, liar, LeaderComplaint(partition=0))
        system.run_until_idle()
        counters = system.counters()
        assert counters.leader_suspicions == 0
        assert counters.view_changes == 0
        for member in system.topology.members(0):
            assert system.replicas[member].progress_monitor.state.probes == set()

    def test_complaint_about_a_decided_txn_is_dismissed(self):
        system = make_system()
        client = system.create_client("w")
        key = system.keys_of_partition(0)[0]
        results = []

        def body():
            result = yield from client.read_write_txn([], {key: b"v"})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()
        assert results and results[0].committed
        decided_txn = TxnPayload(
            txn_id=results[0].txn_id, reads={}, writes={key: b"v"}, client="w"
        )

        liar = system.create_client("liar")
        complain_to_cluster(
            system, liar, LeaderComplaint(partition=0, txn=decided_txn)
        )
        system.run_until_idle()
        counters = system.counters()
        assert counters.leader_suspicions == 0
        assert counters.view_changes == 0


class TestHonestComplaintsStillWork:
    def test_dead_leader_is_still_voted_out_through_corroboration(self):
        # The corroboration must not blunt real detection: a crashed idle
        # leader never acks the forwarded request, the complaint stands,
        # and the cluster rotates — then the client's retry commits.
        system = make_system()
        client = system.create_client("w", commit_timeout_ms=200.0)
        key = system.keys_of_partition(0)[0]
        old_leader = system.topology.leader(0)
        system.crash_replica(old_leader)

        results = []

        def body():
            result = yield from client.read_write_txn([], {key: b"v"})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()

        counters = system.counters()
        assert counters.view_changes >= 1
        assert system.topology.leader(0) != old_leader
        assert client.stats.timeouts >= 1
        assert results and results[0].committed
