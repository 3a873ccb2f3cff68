"""Boundary robustness: a byzantine ``StateTransferReply`` is rejected, not raised.

Any cluster member can send a state-transfer reply to any peer at any time,
so its fields cannot be trusted to even have the declared *shape*.  A reply
whose fields do not is charged the flat message-handling cost, installs
nothing and is counted in ``state_transfers_rejected`` — it must never raise
out of ``SimNode.receive`` (the cost model runs before any handler) or out of
the recovery coordinator, because either escapes ``run_until_idle`` and takes
the whole run down with it.
"""

from __future__ import annotations

import pytest

from repro.common.config import BatchConfig, CheckpointConfig, LatencyConfig, SystemConfig
from repro.core.system import TransEdgeSystem
from repro.recovery.messages import StateTransferReply


def make_system():
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=2,
            fault_tolerance=1,
            initial_keys=64,
            batch=BatchConfig(max_size=4, timeout_ms=2.0),
            latency=LatencyConfig(jitter_fraction=0.0),
            checkpoint=CheckpointConfig(interval_batches=5, retention_batches=5),
        )
    )
    write(system, 6, tag="before")
    return system


def write(system, count, tag):
    client = system.create_client(f"writer-{tag}")
    keys = system.keys_of_partition(0)[:8]

    def body():
        for i in range(count):
            result = yield from client.read_write_txn(
                [], {keys[i % len(keys)]: f"{tag}-{i}".encode()}
            )
            assert result.committed, result.abort_reason

    client.spawn(body())
    system.run_until_idle()


#: (id, malformed fields, is the victim mid-recovery?) — the first three
#: used to raise in ``PartitionReplica.processing_cost_ms`` whoever the
#: receiver was, the last two inside the recovery session.
MALFORMED = [
    ("entries-none", {"entries": None}, False),
    ("entries-not-log-entries", {"entries": (42,)}, False),
    ("image-not-an-image", {"image": 7}, False),
    ("view-not-an-int", {"view": "v"}, True),
    ("responder-tip-none", {"responder_tip": None}, True),
]


class TestMalformedStateTransferReply:
    @pytest.mark.parametrize(
        "fields, recovering",
        [case[1:] for case in MALFORMED],
        ids=[case[0] for case in MALFORMED],
    )
    def test_malformed_reply_is_rejected_and_installs_nothing(self, fields, recovering):
        system = make_system()
        members = system.topology.members(0)
        byzantine, victim = system.replicas[members[1]], system.replicas[members[3]]
        victim.recovery.in_progress = recovering
        tip, root, view = victim.log.last_seq, victim.merkle.root, victim.engine.view
        rejected = victim.counters.state_transfers_rejected

        byzantine.send(victim.node_id, StateTransferReply(partition=0, **fields))
        system.run_until_idle()  # nothing raises out of the run

        assert (victim.log.last_seq, victim.merkle.root, victim.engine.view) == (
            tip, root, view,
        )
        assert victim.counters.state_transfers_rejected == rejected + 1
        assert victim.counters.recoveries_completed == 0
        assert victim.recovery.in_progress is recovering
        # The cluster, victim included, keeps committing afterwards.
        victim.recovery.in_progress = False
        write(system, 4, tag="after")
        assert victim.log.last_seq > tip
        assert victim.merkle.root == system.leader_replica(0).merkle.root

    def test_well_formed_reply_from_a_member_still_installs(self):
        system = make_system()
        members = system.topology.members(0)
        responder, victim = system.replicas[members[1]], system.replicas[members[3]]
        system.crash_replica(victim.node_id)
        write(system, 6, tag="during")
        assert victim.log.last_seq < responder.log.last_seq

        # Rejoin by hand, so the one reply below is all the victim hears.
        system.fault_injector.restart(victim.node_id)
        victim.crashed = False
        victim.reset_for_recovery()
        victim.recovery.in_progress = True
        stable = responder.checkpoints.stable_image
        responder.send(
            victim.node_id,
            StateTransferReply(
                partition=0,
                image=stable,
                certificate=responder.checkpoints.stable_certificate,
                entries=responder.log.entries_from(stable.seq + 1),
                view=responder.engine.view,
                view_certificate=responder.engine.view_certificate,
                responder_tip=responder.log.last_seq,
            ),
        )
        system.run_until_idle()

        assert victim.counters.state_transfers_rejected == 0
        assert victim.counters.recoveries_completed == 1
        assert not victim.recovery.in_progress
        assert victim.log.last_seq == responder.log.last_seq
        assert victim.merkle.root == responder.merkle.root
