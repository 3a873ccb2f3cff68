"""Integration tests for the PBFT-style consensus engine.

The engine is exercised through a tiny replicated application (an
append-only list of strings) running on a simulated cluster, the same way
TransEdge's partition replicas use it for batches.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

import pytest

from repro.bft.byzantine import (
    make_equivocating_leader,
    make_silent,
    make_vote_forger,
)
from repro.bft.engine import PbftEngine
from repro.bft.log import ReplicatedLog
from repro.bft.messages import BftMessage, CertificateRebroadcast, Commit, PrePrepare, Prepare
from repro.common.config import LatencyConfig, SystemConfig
from repro.common.errors import ConsensusError, NotLeaderError
from repro.common.ids import ReplicaId
from repro.crypto.hashing import digest_of
from repro.simnet.faults import FaultInjector, FaultRule
from repro.simnet.node import SimEnvironment, SimNode


class ListReplica(SimNode):
    """Minimal SMR application: replicates an ordered list of strings."""

    def __init__(self, node_id, env, members, reject_proposals=False):
        super().__init__(node_id, env)
        self.log = ReplicatedLog()
        self.delivered: List[str] = []
        self.views_seen: List[int] = []
        self.reject_proposals = reject_proposals
        self.engine = PbftEngine(
            owner=self,
            partition=node_id.partition,
            members=members,
            application=self,
            digest_fn=lambda proposal: digest_of(["list-entry", proposal]),
        )
        self.register_handler(BftMessage, lambda m, s: self.engine.handle(m, s))

    # ConsensusApplication interface -----------------------------------------

    def validate_proposal(self, seq, proposal):
        return not self.reject_proposals

    def deliver(self, seq, proposal, certificate):
        self.log.append(seq, proposal, certificate)
        self.delivered.append(proposal)

    def on_view_change(self, new_view, new_leader):
        self.views_seen.append(new_view)


def build_cluster(f=1, n_extra=0, env=None):
    config = SystemConfig(
        num_partitions=1,
        fault_tolerance=f,
        latency=LatencyConfig(jitter_fraction=0.0),
    )
    env = env or SimEnvironment(config)
    members = [ReplicaId(0, i) for i in range(3 * f + 1 + n_extra)]
    replicas = [ListReplica(m, env, members) for m in members]
    return env, replicas


class TestHappyPath:
    def test_single_proposal_delivered_everywhere(self):
        env, replicas = build_cluster()
        leader = replicas[0]
        seq = leader.engine.propose("value-0")
        env.simulator.run_until_idle()
        assert seq == 0
        assert all(r.delivered == ["value-0"] for r in replicas)

    def test_sequence_of_proposals_delivered_in_order(self):
        env, replicas = build_cluster()
        leader = replicas[0]
        for i in range(5):
            leader.engine.propose(f"value-{i}")
            env.simulator.run_until_idle()
        expected = [f"value-{i}" for i in range(5)]
        assert all(r.delivered == expected for r in replicas)
        assert all(r.log.last_seq == 4 for r in replicas)

    def test_pipelined_proposals_still_deliver_in_order(self):
        env, replicas = build_cluster()
        leader = replicas[0]
        for i in range(4):
            leader.engine.propose(f"v{i}")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["v0", "v1", "v2", "v3"] for r in replicas)

    def test_certificates_verify_against_cluster(self):
        env, replicas = build_cluster()
        config = env.config
        leader = replicas[0]
        leader.engine.propose("certified")
        env.simulator.run_until_idle()
        for replica in replicas:
            certificate = replica.log.entries_from(0)[0].certificate
            assert certificate.verify(
                env.registry, leader.engine.members, required=config.certificate_size
            )
            assert len(certificate.signatures) >= config.quorum_size

    def test_non_leader_cannot_propose(self):
        _, replicas = build_cluster()
        with pytest.raises(NotLeaderError):
            replicas[1].engine.propose("nope")

    def test_larger_cluster_f2(self):
        env, replicas = build_cluster(f=2)
        assert len(replicas) == 7
        replicas[0].engine.propose("seven-node-value")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["seven-node-value"] for r in replicas)

    def test_cluster_too_small_for_f_rejected(self):
        env, _ = build_cluster()
        members = [ReplicaId(0, i) for i in range(90, 93)]  # only 3 members
        with pytest.raises(ConsensusError):
            ListReplica(members[0], env, members)


class TestFaultTolerance:
    def test_progress_with_one_silent_replica(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[3].node_id)
        replicas[0].engine.propose("still-works")
        env.simulator.run_until_idle()
        honest = replicas[:3]
        assert all(r.delivered == ["still-works"] for r in honest)

    def test_no_progress_with_too_many_silent_replicas(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[2].node_id)
        make_silent(injector, replicas[3].node_id)
        replicas[0].engine.propose("cannot-commit")
        env.simulator.run_until_idle()
        assert all(r.delivered == [] for r in replicas)

    def test_vote_forger_does_not_block_progress(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_vote_forger(injector, replicas[1].node_id)
        replicas[0].engine.propose("value")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["value"] for r in replicas if r is not replicas[1])

    def test_equivocating_leader_cannot_commit_conflicting_values(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_equivocating_leader(
            injector,
            replicas[0].node_id,
            confused_replicas=[replicas[2].node_id, replicas[3].node_id],
            corrupt_proposal=lambda proposal: proposal + "-conflicting",
        )
        replicas[0].engine.propose("honest-value")
        env.simulator.run_until_idle()
        # The confused replicas reject the pre-prepare (digest mismatch), so
        # no quorum forms for either value and nothing is delivered — safety
        # is preserved even though liveness is lost for this instance.
        delivered_values = {value for r in replicas for value in r.delivered}
        assert "honest-value-conflicting" not in delivered_values
        assert all(len(r.delivered) <= 1 for r in replicas)

    def test_replica_rejecting_validation_does_not_prepare(self):
        env, replicas = build_cluster()
        # Three of four replicas reject the proposal: no 2f+1 prepare quorum.
        for replica in replicas[1:]:
            replica.reject_proposals = True
        replicas[0].engine.propose("rejected-by-app")
        env.simulator.run_until_idle()
        assert all(r.delivered == [] for r in replicas)


class TestDecidedBeforeOwnPrepareQuorum:
    """``commit_sent`` and ``decided`` are separate facts: the peers' commits
    can decide an instance before this replica's own prepare quorum forms,
    and the replica still sends its one commit when that quorum does."""

    def test_a_replica_decided_by_its_peers_still_sends_its_commit(self):
        env, replicas = build_cluster()
        follower = replicas[3]
        FaultInjector(env.network).delay(
            FaultRule(dst=follower.node_id, message_type=Prepare), 5.0
        )
        timeline = []
        deliver, broadcast = follower.deliver, follower.broadcast

        def delivering(seq, proposal, certificate):
            timeline.append(("deliver", env.now))
            deliver(seq, proposal, certificate)

        def broadcasting(destinations, message):
            if isinstance(message, Commit):
                timeline.append(("commit", env.now))
            broadcast(destinations, message)

        follower.deliver, follower.broadcast = delivering, broadcasting
        replicas[0].engine.propose("value")
        env.simulator.run_until_idle()

        assert [kind for kind, _ in timeline] == ["deliver", "commit"]
        (_, delivered_at), (_, committed_at) = timeline
        assert delivered_at < 5.0 < committed_at  # the prepares were held 5 ms
        assert all(r.delivered == ["value"] for r in replicas)


class TestViewChange:
    def test_view_change_elects_next_leader(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        # Honest replicas suspect the silent leader.
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        for replica in replicas[1:]:
            assert replica.engine.view == 1
            assert replica.engine.current_leader == ReplicaId(0, 1)
            assert replica.views_seen and replica.views_seen[-1] == 1

    def test_new_leader_can_propose_after_view_change(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        new_leader = replicas[1]
        assert new_leader.engine.is_leader
        new_leader.engine.propose("post-view-change")
        env.simulator.run_until_idle()
        assert all(r.delivered == ["post-view-change"] for r in replicas[1:])

    def test_minority_suspicion_does_not_change_view(self):
        env, replicas = build_cluster()
        replicas[3].engine.suspect_leader()
        env.simulator.run_until_idle()
        assert all(r.engine.view == 0 for r in replicas)

    def test_forged_new_view_without_votes_is_ignored(self):
        # A byzantine replica whose turn the rotation has not reached cannot
        # summon the cluster to "its" view: a NewView announcement must carry
        # a verifiable 2f+1 view-change vote certificate.
        from repro.bft.messages import NewView

        env, replicas = build_cluster()
        forger = replicas[1]  # leader of view 1, but nobody voted
        announce = NewView(view=1, votes=())
        announce.signature = forger.signer.sign(announce.signing_payload())
        forger.broadcast([r.node_id for r in replicas if r is not forger], announce)
        env.simulator.run_until_idle()
        assert all(r.engine.view == 0 for r in replicas if r is not forger)

    def test_view_certificate_transferable_after_view_change(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        for replica in replicas[1:]:
            certificate = replica.engine.view_certificate
            assert certificate is not None and certificate.view == 1
            assert certificate.verify(
                env.registry, replica.engine.members, replica.engine.quorum
            )
        # Re-adopting the current view from the held certificate is a no-op
        # success (the transferable form a state-transfer responder sends).
        assert replicas[1].engine.adopt_view(1, replicas[1].engine.view_certificate)

    def test_delivery_continues_across_views(self):
        env, replicas = build_cluster()
        replicas[0].engine.propose("before")
        env.simulator.run_until_idle()
        injector = FaultInjector(env.network)
        make_silent(injector, replicas[0].node_id)
        for replica in replicas[1:]:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        replicas[1].engine.propose("after")
        env.simulator.run_until_idle()
        for replica in replicas[1:]:
            assert replica.delivered == ["before", "after"]


def _forged_signatures(certificate):
    return tuple(
        dataclasses.replace(sig, value=b"\x00" * len(sig.value)) for sig in certificate.signatures
    )


#: (id, what a byzantine gossiper changes in an honest rebroadcast, who sends it)
FORGED_REBROADCASTS = [
    ("sender-not-a-member", {}, "outsider"),
    ("outer-signature-forged", {"signature": "forged"}, "member"),
    ("certificate-of-another-seq", {"certificate": lambda c: dataclasses.replace(c, seq=1)}, "member"),
    ("certificate-of-another-partition",
     {"certificate": lambda c: dataclasses.replace(c, partition=1)}, "member"),
    ("proposal-not-the-certified-one", {"proposal": "forged"}, "member"),
    ("certificate-signatures-forged",
     {"certificate": lambda c: dataclasses.replace(c, signatures=_forged_signatures(c))}, "member"),
    ("no-certificate", {"certificate": lambda c: None}, "member"),
]


class TestForgedCertificateRebroadcast:
    """A replica that missed an instance adopts a gossiped decision only from a
    member, under the member's signature, with a certificate for exactly that
    instance and proposal; anything else leaves it where it was."""

    def _behind(self):
        env, replicas = build_cluster()
        injector = FaultInjector(env.network)
        cut = injector.isolate(replicas[3].node_id)
        replicas[0].engine.propose("value-0")
        env.simulator.run_until_idle()
        for fault in cut:
            injector.remove(fault)
        (entry,) = replicas[0].log.entries_from(0)
        assert replicas[3].delivered == []
        return env, replicas, entry

    def _send(self, env, sender, victim, entry, forge):
        certificate = forge.get("certificate", lambda c: c)(entry.certificate)
        message = CertificateRebroadcast(
            view=0, seq=0, digest=certificate.digest if certificate else b"",
            proposal=forge.get("proposal", entry.value),
            certificate=certificate, last_delivered=0,
        )
        message.signature = sender.signer.sign(message.signing_payload())
        if forge.get("signature") == "forged":
            message.signature = dataclasses.replace(
                message.signature, value=b"\x00" * len(message.signature.value)
            )
        sender.send(victim.node_id, message)
        env.simulator.run_until_idle()

    @pytest.mark.parametrize(
        "forge, sender",
        [case[1:] for case in FORGED_REBROADCASTS],
        ids=[case[0] for case in FORGED_REBROADCASTS],
    )
    def test_forged_rebroadcast_is_not_adopted(self, forge, sender):
        env, replicas, entry = self._behind()
        victim = replicas[3]
        gossiper = replicas[1]
        if sender == "outsider":
            gossiper = ListReplica(ReplicaId(0, 4), env, victim.engine.members)
        decided = victim.engine.decided_count

        self._send(env, gossiper, victim, entry, forge)

        assert victim.delivered == []
        assert victim.engine.decided_count == decided
        assert victim.engine.last_delivered_seq == -1

        # The honest rebroadcast, from a member, is adopted.
        self._send(env, replicas[1], victim, entry, {})
        assert victim.delivered == ["value-0"]

    def test_rebroadcast_of_a_delivered_instance_is_not_adopted_again(self):
        env, replicas, entry = self._behind()
        victim = replicas[3]
        self._send(env, replicas[1], victim, entry, {})
        decided = victim.engine.decided_count

        self._send(env, replicas[2], victim, entry, {})

        assert victim.delivered == ["value-0"]
        assert victim.engine.decided_count == decided
        assert victim.engine._pending_deliveries == {}


def _rescanned_is_behind(engine):
    """``is_behind`` as a scan of every retained instance (the reference)."""
    if engine._buffered_pre_prepares or engine._pending_deliveries:
        return True
    return any(
        seq >= engine._next_deliver_seq
        and not instance.decided
        and instance.proposal is None
        and instance.commits.reached(engine.quorum)
        for seq, instance in engine._instances.items()
    )


class TestIsBehind:
    """``is_behind`` re-checks only the seqs whose commits came before their
    proposal; through each transition of such an instance it answers what a
    scan of every retained instance answers."""

    def _feed(self, replica, message, sender):
        message.signature = sender.signer.sign(message.signing_payload())
        replica.engine.handle(message, sender.node_id)
        answer = replica.engine.is_behind()
        assert answer == _rescanned_is_behind(replica.engine)
        return answer

    def _commit_quorum_first(self, view=0):
        """Replica 3 receives seq 0's commit quorum and no proposal."""
        env, replicas = build_cluster()
        follower = replicas[3]
        digest = digest_of(["list-entry", "v"])
        answers = [
            self._feed(follower, Commit(view=view, seq=0, digest=digest), sender)
            for sender in replicas[:3]
        ]
        return env, replicas, follower, answers

    def test_commits_reach_quorum_before_the_proposal(self):
        _, _, follower, answers = self._commit_quorum_first()
        assert answers == [False, False, True]
        assert list(follower.engine._early_commits) == [0]

    def test_the_proposal_arrives(self):
        _, replicas, follower, _ = self._commit_quorum_first()
        proposal = PrePrepare(view=0, seq=0, digest=digest_of(["list-entry", "v"]), proposal="v")
        assert not self._feed(follower, proposal, replicas[0])
        assert follower.delivered == ["v"]  # the commits it held decide it at once
        assert follower.engine._early_commits == {}

    def test_the_instance_is_delivered(self):
        _, _, follower, _ = self._commit_quorum_first()
        follower.engine.install_checkpoint(0)  # delivered out of band
        assert not follower.engine.is_behind()
        assert not _rescanned_is_behind(follower.engine)
        assert follower.engine._early_commits == {}

    def test_a_view_change_replaces_it(self):
        env, replicas, follower, _ = self._commit_quorum_first()
        for replica in replicas:
            replica.engine.suspect_leader()
        env.simulator.run_until_idle()
        assert follower.engine.view == 1
        assert not follower.engine.is_behind()
        assert not _rescanned_is_behind(follower.engine)
        # The new view's instance at seq 0 is listed by its own early commits.
        digest = digest_of(["list-entry", "w"])
        answers = [
            self._feed(follower, Commit(view=1, seq=0, digest=digest), sender)
            for sender in replicas[:3]
        ]
        assert answers == [False, False, True]


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP A(2): a re-proposal of a delivered seq is decided again and "
    "parked below the delivery point, where nothing delivers or clears it",
)
def test_a_reproposal_of_a_delivered_seq_is_not_parked():
    env, replicas = build_cluster()
    replicas[0].engine.propose("v0")
    env.simulator.run_until_idle()
    for replica in replicas:
        replica.engine.suspect_leader()
    env.simulator.run_until_idle()
    assert all(replica.engine.view == 1 for replica in replicas)

    leader, followers = replicas[1], [r for r in replicas if r is not replicas[1]]
    again = PrePrepare(
        view=1, seq=0, digest=digest_of(["list-entry", "v0-again"]), proposal="v0-again"
    )
    again.signature = leader.signer.sign(again.signing_payload())
    leader.broadcast([r.node_id for r in followers], again)
    env.simulator.run_until_idle()

    assert all(r.delivered == ["v0"] for r in replicas)
    for follower in followers:
        assert follower.engine._pending_deliveries == {}
        assert not follower.engine.is_behind()
