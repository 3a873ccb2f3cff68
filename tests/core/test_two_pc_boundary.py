"""Boundary robustness: byzantine 2PC and commit messages fail closed.

Any node can send a replica anything.  A message whose fields do not even
have the declared *shape* is charged the flat message-handling cost, leaves
one ``malformed-message`` event and nothing else — it must never raise out
of ``SimNode.receive`` (the cost model runs before any handler) or out of a
handler, because either escapes ``run_until_idle`` and takes the run down.
A message that *is* well formed but whose vote nobody could verify — an
unsigned "no" — is no vote: recorded, it would make an honest coordinator
seal an abort record its own followers reject, and get it voted out.
"""

from __future__ import annotations

import pytest

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.core.batch import PreparedRecord, PreparedVote
from repro.core.messages import (
    CommitRequest,
    CoordinatorPrepare,
    DecisionMessage,
    DecisionReply,
    ParticipantPrepared,
)
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload
from repro.core.twopc import TxnRecord

PENDING = "pending-txn"


def make_system() -> TransEdgeSystem:
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    commit_across(system, "before")  # batch 1 exists on both clusters
    plant_pending_coordination(system)
    return system


def commit_across(system: TransEdgeSystem, tag: str):
    """One organic cross-partition transaction, run to completion."""
    client = system.create_client(f"writer-{tag}")
    keys = [system.keys_of_partition(p)[0] for p in (0, 1)]
    results = []

    def body():
        result = yield from client.read_write_txn([], {key: tag.encode() for key in keys})
        results.append(result)

    client.spawn(body())
    system.run_until_idle()
    return results[0]


def plant_pending_coordination(system: TransEdgeSystem) -> None:
    """A prepare written in batch 1 of cluster 0, its vote collection open.

    Prepare groups are replicated state, so the group goes onto every member
    of the coordinator cluster; the open vote collection is the leader's.
    Nothing pokes the 2PC retry timer here, so the coordination stays exactly
    as planted unless a received message moves it.
    """
    keys = [system.keys_of_partition(p)[-1] for p in (0, 1)]
    txn = TxnPayload(txn_id=PENDING, reads={}, writes={k: b"p" for k in keys}, client="test")
    record = PreparedRecord(txn=txn, coordinator=0)
    for member in system.topology.members(0):
        replica = system.replicas[member]
        replica.prepared_batches.add_group(1, [record])
    system.leader_replica(0).leader_role._txns[PENDING] = TxnRecord(votes={})


#: (id, message) — each used to raise out of ``run_until_idle`` when one
#: cluster member sent it to an honest leader: the first five whatever the
#: leader's state, the last two against the pending coordination.
MALFORMED = [
    ("vote-not-a-vote", ParticipantPrepared(vote=7)),
    ("decision-record-not-a-record", DecisionMessage(record=5)),
    ("decision-reply-record-not-a-record", DecisionReply(record=5)),
    ("prepare-txn-not-a-txn", CoordinatorPrepare(txn=5)),
    ("commit-request-txn-not-a-txn", CommitRequest(txn=5)),
    (
        "vote-header-not-a-header",
        ParticipantPrepared(vote=PreparedVote(PENDING, partition=1, vote=True, header=3)),
    ),
    (
        "vote-partition-unhashable",
        ParticipantPrepared(vote=PreparedVote(PENDING, partition=[1], vote=False)),
    ),
]


def two_pc_state(system: TransEdgeSystem):
    """Everything a 2PC or commit message could have moved on cluster 0's leader."""
    leader = system.leader_replica(0)
    role = leader.leader_role
    group = leader.prepared_batches.group_of_txn(PENDING)
    return (
        leader.log.last_seq,
        dict(role._txns[PENDING].votes),
        sorted(group.decisions),
        participating(role),
        role.in_progress_size(),
        sorted(leader.decided),
    )


def participating(role):
    """The prepares the leader admitted as a participant, not yet decided."""
    return sorted(txn_id for txn_id, record in role._txns.items() if record.participating)


def malformed_events(system: TransEdgeSystem):
    return [e for e in system.env.obs.recorder.timeline() if e.kind == "malformed-message"]


class TestMalformedTwoPcMessages:
    @pytest.mark.parametrize(
        "message", [case[1] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_malformed_message_is_refused_and_records_nothing(self, message):
        system = make_system()
        members = system.topology.members(0)
        byzantine, leader = system.replicas[members[1]], system.leader_replica(0)
        before = two_pc_state(system)
        counters = system.counters()

        byzantine.send(leader.node_id, message)
        system.run_until_idle()  # nothing raises out of the run

        assert two_pc_state(system) == before
        assert system.counters() == counters  # no counter moved, no new key
        (event,) = malformed_events(system)
        assert event.node == str(leader.node_id)
        assert event.detail == {"type": type(message).__name__, "from": str(byzantine.node_id)}
        # Both clusters keep committing afterwards.
        assert commit_across(system, "after").committed
        # The flat cost only: ``receive`` never prices a malformed message.
        start = max(leader.now, leader._busy_until)
        leader.receive(message, byzantine.node_id)
        assert leader._busy_until - start == pytest.approx(system.config.costs.message_handling_ms)

    def test_well_formed_vote_from_its_cluster_still_counts(self):
        # The control: a "no" signed by the participant's leader is a vote.
        system = make_system()
        leader, participant = system.leader_replica(0), system.leader_replica(1)
        participant.send(
            leader.node_id,
            ParticipantPrepared(vote=participant.leader_role._abort_vote(PENDING)),
        )
        system.run_until_idle()

        assert malformed_events(system) == []
        counters = system.counters()
        # Decided, sealed, accepted by every follower, delivered.
        assert leader.prepared_batches.group_of_txn(PENDING) is None
        assert leader.decided[PENDING][1].decision is False
        assert leader.counters.distributed_aborted == 1
        assert (counters.validation_failures, counters.view_changes) == (0, 0)

    def test_prepare_naming_an_unknown_coordinator_is_refused(self):
        # Well formed, but ``topology.members(99)`` used to raise on it.
        system = make_system()
        members = system.topology.members(1)
        byzantine, leader = system.replicas[members[1]], system.leader_replica(1)
        keys = [system.keys_of_partition(p)[3] for p in (0, 1)]
        txn = TxnPayload(txn_id="x", reads={}, writes={k: b"x" for k in keys}, client="test")

        byzantine.send(
            leader.node_id,
            CoordinatorPrepare(txn=txn, coordinator=99, header=leader.header_at(1)),
        )
        system.run_until_idle()

        assert participating(leader.leader_role) == []
        assert leader.leader_role.in_progress_size() == 0


class TestForgedAbortVote:
    def test_unsigned_no_from_a_non_participant_is_no_vote(self):
        # One unsigned negative vote, from a replica that is not even a
        # member of partition 1, used to make the coordinator seal an abort
        # its own followers reject: validation failures, view changes, an
        # honest leader deposed.
        system = make_system()
        members = system.topology.members(0)
        byzantine, leader = system.replicas[members[1]], system.leader_replica(0)
        forged = PreparedVote(txn_id=PENDING, partition=1, vote=False)

        byzantine.send(leader.node_id, ParticipantPrepared(vote=forged))
        system.run_until_idle()

        counters = system.counters()
        assert (counters.validation_failures, counters.view_changes) == (0, 0)
        assert system.topology.leader(0) == leader.node_id
        # Still undecided, the vote collection still open and empty.
        assert leader.prepared_batches.group_of_txn(PENDING).decisions == {}
        assert leader.leader_role._txns[PENDING].votes == {}

    @pytest.mark.parametrize("partition", [0, 7])
    def test_vote_naming_no_participant_is_no_vote(self, partition):
        # The coordinator's own partition, or one that does not exist (which
        # the topology lookup would raise on), names no participant.
        system = make_system()
        leader, participant = system.leader_replica(0), system.leader_replica(1)
        vote = participant.leader_role._abort_vote(PENDING)
        vote = type(vote)(PENDING, partition, vote=False, signature=vote.signature)

        participant.send(leader.node_id, ParticipantPrepared(vote=vote))
        system.run_until_idle()

        assert leader.leader_role._txns[PENDING].votes == {}
        assert system.counters().view_changes == 0
