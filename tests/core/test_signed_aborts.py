"""Signed abort votes: a byzantine coordinator cannot forge unilateral aborts.

A commit record with ``decision=False`` is justified by its negative votes.
Positive votes always proved themselves (they carry the certified header of
the prepare batch); negative votes used to be bare claims, so a byzantine
coordinator could fabricate "partition P voted no" and abort any
fully-prepared transaction.  Now the voting partition's leader signs every
negative vote and validators require, for each negative vote in an abort
record, a valid signature from a member of the cluster it claims voted no.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    BatchConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.core.batch import CommitRecord, PreparedRecord, PreparedVote
from repro.core.messages import ParticipantPrepared
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload
from repro.core.twopc import TxnRecord
from repro.storage.locks import LockMode


def make_system(**overrides) -> TransEdgeSystem:
    defaults = dict(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=32,
        batch=BatchConfig(max_size=4, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
    )
    defaults.update(overrides)
    return TransEdgeSystem(SystemConfig(**defaults))


def cross_partition_txn(system: TransEdgeSystem, txn_id: str) -> TxnPayload:
    key0 = system.keys_of_partition(0)[0]
    key1 = system.keys_of_partition(1)[0]
    return TxnPayload(
        txn_id=txn_id, reads={}, writes={key0: b"a", key1: b"b"}, client="test"
    )


class TestOrganicAbortsStillFlow:
    def test_participant_refusal_produces_a_signed_validated_abort(self):
        # Interference at the participant makes it vote no; the signed
        # abort record must clear validation on every replica of both
        # clusters and reach the client as a normal abort.
        system = make_system()
        client = system.create_client("w")
        key0 = system.keys_of_partition(0)[0]
        key1 = system.keys_of_partition(1)[0]
        # Interfere at whichever partition the client will NOT coordinate
        # through, so the refusal travels as a 2PC vote instead of aborting
        # at admission.
        coordinator = client._coordinator_for({0, 1})
        participant = 1 - coordinator
        participant_key = key1 if participant == 1 else key0
        participant_leader = system.leader_replica(participant)
        participant_leader.locks.try_acquire("reader", [participant_key], LockMode.SHARED)

        results = []

        def body():
            result = yield from client.read_write_txn([], {key0: b"a", key1: b"b"})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()

        assert len(results) == 1
        assert not results[0].committed
        assert results[0].abort_reason == "a participant voted to abort"
        counters = system.counters()
        # One abort record, mirrored by every replica of the coordinator
        # cluster (system counters sum across replicas).
        assert system.leader_replica(coordinator).counters.distributed_aborted == 1
        # The abort record was accepted everywhere: a validation failure
        # would have stalled consensus on the coordinator cluster.
        assert counters.validation_failures == 0

    def test_negative_votes_are_signed_by_the_voting_leader(self):
        system = make_system()
        participant_leader = system.leader_replica(1)
        vote = participant_leader.leader_role._abort_vote("some-txn")
        assert not vote.vote
        assert vote.signature is not None
        assert vote.signature.signer == str(participant_leader.node_id)
        assert participant_leader.verifier.verify(
            vote.abort_signing_payload(), vote.signature
        )


class TestForgedAbortsRejected:
    def _record_with(self, system: TransEdgeSystem, vote: PreparedVote) -> CommitRecord:
        txn = cross_partition_txn(system, "forged-txn")
        return CommitRecord(
            txn=txn, coordinator=0, decision=False, prepare_batch=1, votes={1: vote}
        )

    def test_unsigned_negative_vote_fails_validation(self):
        system = make_system()
        validator = system.leader_replica(0)
        forged = PreparedVote(txn_id="forged-txn", partition=1, vote=False)
        assert not validator._validate_commit_record(self._record_with(system, forged))

    def test_negative_vote_signed_by_the_wrong_cluster_fails_validation(self):
        # A byzantine coordinator CAN sign — but only as itself, and a
        # partition-0 identity cannot vouch for partition 1's refusal.
        system = make_system()
        coordinator_leader = system.leader_replica(0)
        forged = PreparedVote(txn_id="forged-txn", partition=1, vote=False)
        forged = dataclasses.replace(
            forged,
            signature=coordinator_leader.signer.sign(forged.abort_signing_payload()),
        )
        assert not coordinator_leader._validate_commit_record(
            self._record_with(system, forged)
        )

    def test_properly_signed_negative_vote_passes_validation(self):
        system = make_system()
        validator = system.leader_replica(0)
        vote = system.leader_replica(1).leader_role._abort_vote("forged-txn")
        assert validator._validate_commit_record(self._record_with(system, vote))

class TestUnverifiablePositiveVotes:
    def _coordinator_with_pending_votes(self, system: TransEdgeSystem):
        # A written prepare (the replicated group) whose vote collection is
        # open on the leader — the only 2PC state a leader keeps.
        leader = system.leader_replica(0)
        txn = cross_partition_txn(system, "pending-txn")
        leader.prepared_batches.add_group(1, [PreparedRecord(txn=txn, coordinator=0)])
        leader.leader_role._txns["pending-txn"] = TxnRecord(votes={})
        return leader, lambda: leader.leader_role._txns["pending-txn"].votes

    def test_unverifiable_positive_vote_is_ignored_not_downgraded(self):
        # The coordinator cannot sign a negative vote on the participant's
        # behalf, so a positive vote with a bogus proof is treated as no
        # vote at all — the retry timer re-solicits a verifiable one.
        system = make_system()
        leader, votes = self._coordinator_with_pending_votes(system)
        bogus = ParticipantPrepared(
            vote=PreparedVote(txn_id="pending-txn", partition=1, vote=True)
        )
        leader.leader_role.on_participant_prepared(bogus, src=None)
        assert votes() == {}

    def test_signed_negative_vote_is_recorded(self):
        # The control: the same planted coordination does record a vote that
        # proves itself, so the one above was refused for its proof.
        system = make_system()
        leader, votes = self._coordinator_with_pending_votes(system)
        signed = system.leader_replica(1).leader_role._abort_vote("pending-txn")
        leader.leader_role.on_participant_prepared(
            ParticipantPrepared(vote=signed), src=None
        )
        assert votes() == {1: signed}


def certified_votes(system: TransEdgeSystem, txn_id: str):
    """One honest positive vote per partition: its leader's latest header."""
    client = system.create_client("w")
    partitions = range(system.config.num_partitions)
    keys = [system.keys_of_partition(p)[1] for p in partitions]

    def body():
        for key in keys:
            yield from client.read_write_txn([], {key: b"w"})

    client.spawn(body())
    system.run_until_idle()
    return {
        p: PreparedVote(
            txn_id=txn_id, partition=p, vote=True, header=system.leader_replica(p).last_header
        )
        for p in partitions
    }


def abort_vote(system: TransEdgeSystem, partition: int) -> PreparedVote:
    """``partition``'s leader's signed negative vote on the forged transaction."""
    return system.leader_replica(partition).leader_role._abort_vote("forged-txn")


def _forge_vote(change):
    return lambda system, votes: {0: votes[0], 1: dataclasses.replace(votes[1], **change(votes))}


#: (id, the votes a byzantine coordinator seals into a commit decision) — the
#: transaction touches partitions 0 and 1; each forgery trips one check.
FORGED_COMMITS = [
    ("a-partition-never-voted", lambda system, votes: {0: votes[0]}),
    ("an-extra-negative-vote", lambda system, votes: {
        0: votes[0], 1: votes[1], 2: dataclasses.replace(votes[2], vote=False)}),
    ("vote-without-header", _forge_vote(lambda votes: {"header": None})),
    ("header-of-another-partition", _forge_vote(lambda votes: {"header": votes[0].header})),
    ("header-not-certified", _forge_vote(lambda votes: {
        "header": dataclasses.replace(votes[1].header, content_digest=b"\x00" * 32)})),
]


def _signed_by_a_non_member(system):
    vote = PreparedVote(txn_id="forged-txn", partition=1, vote=False)
    outsider = system.leader_replica(2).signer
    return dataclasses.replace(vote, signature=outsider.sign(vote.abort_signing_payload()))


#: (id, the votes a byzantine coordinator seals into an abort decision)
FORGED_ABORTS = [
    ("no-negative-vote", lambda system, votes: {0: votes[0], 1: votes[1]}),
    ("negative-vote-of-an-unaccessed-partition", lambda system, votes: {
        2: abort_vote(system, 2)}),
    ("unsigned-negative-vote", lambda system, votes: {
        1: PreparedVote(txn_id="forged-txn", partition=1, vote=False)}),
    ("negative-vote-signed-by-a-non-member", lambda system, votes: {
        1: _signed_by_a_non_member(system)}),
    ("member-signature-with-wrong-bytes", lambda system, votes: {
        1: dataclasses.replace(abort_vote(system, 1), signature=dataclasses.replace(
            abort_vote(system, 1).signature, value=b"\x00" * 32))}),
]


class TestForgedDecisionsRejected:
    """Every refusal of ``_validate_commit_record``: a forged record is
    refused, and the same record with honest votes passes."""

    def _record(self, system, decision, votes):
        return CommitRecord(
            txn=cross_partition_txn(system, "forged-txn"), coordinator=0,
            decision=decision, prepare_batch=1, votes=votes,
        )

    def _validator_and_votes(self):
        system = make_system(num_partitions=3)
        validator = system.replicas[system.topology.members(0)[2]]
        return system, validator, certified_votes(system, "forged-txn")

    @pytest.mark.parametrize(
        "forge", [case[1] for case in FORGED_COMMITS], ids=[case[0] for case in FORGED_COMMITS]
    )
    def test_forged_commit_fails_validation(self, forge):
        system, validator, votes = self._validator_and_votes()
        honest = {0: votes[0], 1: votes[1]}
        assert validator._validate_commit_record(self._record(system, True, honest))
        assert not validator._validate_commit_record(
            self._record(system, True, forge(system, votes))
        )

    @pytest.mark.parametrize(
        "forge", [case[1] for case in FORGED_ABORTS], ids=[case[0] for case in FORGED_ABORTS]
    )
    def test_forged_abort_fails_validation(self, forge):
        system, validator, votes = self._validator_and_votes()
        honest = {1: abort_vote(system, 1)}
        assert validator._validate_commit_record(self._record(system, False, honest))
        assert not validator._validate_commit_record(
            self._record(system, False, forge(system, votes))
        )
