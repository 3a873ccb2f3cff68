"""The resume path is the path: one builder per 2PC step and per replica state.

A 2PC step is only communicated after the batch recording it is in the SMR
log, so the log *is* the 2PC state: the leader that wrote a prepare and a
successor elected after it crashed build ``CoordinatorPrepare`` and
``ParticipantPrepared`` from the same replicated prepare group and certified
header, through the same code.  These tests pin that the two are the same
messages, and that a fresh replica and a crash-wiped one hold the same state.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.common.ids import ClientId
from repro.core.messages import CoordinatorPrepare, ParticipantPrepared
from repro.core.system import TransEdgeSystem
from repro.simnet.faults import FaultRule
from repro.simnet.latency import client_home_partition


def make_system() -> TransEdgeSystem:
    return TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=64,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )


def what_it_says(message):
    """``message`` with every certified header stripped of its certificate.

    A commit certificate is whichever ``2f + 1`` commit signatures the replica
    holding it saw first, so two members' certificates for one batch differ
    legitimately; everything the certificate certifies must not.
    """
    assert message.header.certificate is not None
    bare = replace(message, header=replace(message.header, certificate=None))
    if isinstance(message, ParticipantPrepared):
        assert message.vote.header is message.header
        bare = replace(bare, vote=replace(message.vote, header=bare.header))
    return bare


#: (whose leader dies on the first vote, the step its successor must repeat):
#: the coordinator's dies as the vote reaches it, so its successor solicits
#: again; the participant's dies as its vote leaves — and the vote is lost
#: with it — so its successor votes again.
SUCCESSIONS = [
    ("coordinator", CoordinatorPrepare),
    ("participant", ParticipantPrepared),
]


class TestSuccessorSendsThePredecessorsMessages:
    @pytest.mark.parametrize("side, kind", SUCCESSIONS, ids=[s[0] for s in SUCCESSIONS])
    def test_resent_step_equals_the_first_one_field_for_field(self, side, kind):
        system = make_system()
        client = system.create_client("w", commit_timeout_ms=1_000.0)
        coordinator = client_home_partition(ClientId("w"), 2)
        keys = [system.keys_of_partition(p)[0] for p in (0, 1)]
        victim = system.topology.leader(coordinator if side == "coordinator" else 1 - coordinator)
        sent = []  # (sender, message) of every ``kind`` message, in order
        results = []

        def record(src, dst, message):
            sent.append((src, message))

        def crash_on_first_vote(src, dst, message):
            if not system.replicas[victim].crashed:
                system.crash_replica(victim)

        system.fault_injector.observe(FaultRule(message_type=kind), record)
        if side == "participant":
            # The vote dies with the leader that cast it.
            system.fault_injector.drop(FaultRule(src=victim, message_type=ParticipantPrepared))
        system.fault_injector.observe(
            FaultRule(message_type=ParticipantPrepared), crash_on_first_vote
        )

        def body():
            result = yield from client.read_write_txn([], {key: b"v" for key in keys})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()

        assert len(results) == 1
        assert system.stranded_prepared_transactions() == 0
        assert system.counters().view_changes > 0
        (first_sender, first), *later = sent
        assert first_sender == victim
        successors = [message for sender, message in later if sender != victim]
        assert successors, "the successor leader never re-sent the step"
        for message in successors:
            # Dataclass equality: every declared field (the trace context is
            # excluded from comparison by design — a re-sent step is untraced).
            assert type(message) is kind
            assert what_it_says(message) == what_it_says(first)


class TestOneConstructorOfVolatileState:
    def test_wiped_replica_holds_what_a_fresh_one_holds(self):
        # The drift guard: an attribute built for a fresh replica and
        # forgotten on the crash path (or the reverse) shows up here.
        system = make_system()
        members = system.topology.members(0)
        fresh, wiped = system.replicas[members[1]], system.replicas[members[2]]
        wiped.reset_for_recovery()
        assert set(vars(wiped)) == set(vars(fresh))
        for name in ("engine", "leader_role", "checkpoints", "progress_monitor"):
            assert set(vars(getattr(wiped, name))) == set(vars(getattr(fresh, name)))
        assert len(wiped.store) == 0 and len(fresh.store) > 0
