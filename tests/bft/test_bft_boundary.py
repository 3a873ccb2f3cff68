"""Boundary robustness: malformed consensus messages fail closed.

Any cluster member can sign anything and send it to a peer.  A consensus
message whose fields do not even have the declared *shape* leaves one
``malformed-message`` event and nothing else: the engine never sees it and
the progress monitor is not poked.  These shapes used to raise out of
``run_until_idle`` (a ``TypeError`` in ``has_pending_work`` or in a view
comparison, an ``AttributeError`` on a certificate that is not one), taking
the whole run down.  A leader's proposal that is not a batch is well formed
but digests to nothing, so validation refuses it instead of the engine
raising on it.
"""

from __future__ import annotations

import pytest

from repro.bft.messages import (
    CertificateRebroadcast,
    CheckpointVote,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.common.config import BatchConfig, CheckpointConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem


def make_system() -> TransEdgeSystem:
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=32,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            checkpoint=CheckpointConfig(interval_batches=5, retention_batches=5),
        )
    )
    assert commit(system, "before")
    return system


def commit(system: TransEdgeSystem, tag: str) -> bool:
    client = system.create_client(f"writer-{tag}")
    key = system.keys_of_partition(0)[0]
    results = []

    def body():
        results.append((yield from client.read_write_txn([], {key: tag.encode()})))

    client.spawn(body())
    system.run_until_idle()
    return results[0].committed


def signed(sender, message, payload=None):
    """``message`` signed by ``sender``, over ``payload`` if its own cannot be built."""
    message.signature = sender.signer.sign(payload or message.signing_payload())
    return message


#: (id, message factory) — the sender is member 1 of cluster 0, which view 1
#: makes its leader, so the ``NewView`` is from the right node.  All but the
#: pre-prepare (from a non-leader, so the engine dropped it) used to raise.
MALFORMED = [
    ("prepare-seq-not-an-int", lambda s: signed(s, Prepare(view=0, seq="x", digest=b"d"))),
    ("commit-seq-none", lambda s: signed(s, Commit(view=0, seq=None, digest=b"d"))),
    ("view-change-view-not-an-int", lambda s: signed(s, ViewChange(view="v", last_delivered=0))),
    (
        "rebroadcast-certificate-not-a-certificate",
        lambda s: signed(
            s, CertificateRebroadcast(seq=99, digest=b"d", proposal=b"p", certificate=5)
        ),
    ),
    (
        "rebroadcast-last-delivered-not-an-int",
        lambda s: signed(s, CertificateRebroadcast(last_delivered="x")),
    ),
    ("pre-prepare-seq-not-an-int", lambda s: signed(s, PrePrepare(view=0, seq="x", digest=b""))),
    (
        "checkpoint-vote-seq-not-an-int",
        lambda s: signed(s, CheckpointVote(seq="x", digest=b"d"), ["checkpoint", "x", b"d"]),
    ),
    ("new-view-votes-not-votes", lambda s: signed(s, NewView(view=1, votes=5))),
]


def peers(system: TransEdgeSystem):
    members = system.topology.members(0)
    return system.replicas[members[1]], system.replicas[members[2]]


def consensus_state(replica):
    engine = replica.engine
    return (
        engine.view,
        engine.last_delivered_seq,
        engine.decided_count,
        set(engine._instances),
        set(engine._view_change_votes),
        set(replica.checkpoints._votes),
    )


def malformed_events(system: TransEdgeSystem):
    return [e for e in system.env.obs.recorder.timeline() if e.kind == "malformed-message"]


def count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestMalformedConsensusMessages:
    @pytest.mark.parametrize(
        "make", [case[1] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_malformed_message_is_refused_and_records_nothing(self, make, monkeypatch):
        system = make_system()
        sender, victim = peers(system)
        before = consensus_state(victim)
        counters = system.counters()
        calls = []
        count_calls(monkeypatch, victim.engine, "handle", calls)
        count_calls(monkeypatch, victim.progress_monitor, "poke", calls)
        count_calls(monkeypatch, victim.checkpoints, "on_vote", calls)

        message = make(sender)
        sender.send(victim.node_id, message)
        system.run_until_idle()  # nothing raises out of the run

        assert calls == []
        assert consensus_state(victim) == before
        assert system.counters() == counters
        (event,) = malformed_events(system)
        assert event.node == str(victim.node_id)
        assert event.detail == {"type": type(message).__name__, "from": str(sender.node_id)}
        monkeypatch.undo()
        assert commit(system, "after")

    def test_well_formed_view_change_vote_is_still_recorded(self):
        # The control: the same sender's honest vote reaches the engine.
        system = make_system()
        sender, victim = peers(system)
        vote = ViewChange(view=1, last_delivered=sender.engine.last_delivered_seq)
        sender.send(victim.node_id, signed(sender, vote))
        system.run_until_idle()

        assert malformed_events(system) == []
        assert tuple(victim.engine._view_change_votes[1]) == (str(sender.node_id),)
        assert victim.engine.view == 0  # one vote of the 2f + 1 needed
        assert commit(system, "after")


class TestLeaderProposalNotABatch:
    def test_non_batch_proposal_fails_validation_instead_of_raising(self):
        system = make_system()
        leader = system.leader_replica(0)
        follower = system.replicas[system.topology.members(0)[2]]
        failures = follower.counters.validation_failures
        seq = follower.engine.last_delivered_seq + 1

        proposal = PrePrepare(view=0, seq=seq, digest=b"", proposal=None)
        leader.send(follower.node_id, signed(leader, proposal))
        system.run_until_idle()

        assert malformed_events(system) == []
        assert follower.counters.validation_failures == failures + 1
        assert follower.engine.last_delivered_seq == seq - 1
        assert commit(system, "after")
