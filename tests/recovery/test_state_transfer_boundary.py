"""Boundary robustness: a byzantine ``StateTransferReply`` is rejected, not raised.

Any cluster member can send a state-transfer reply to any peer at any time,
so its fields cannot be trusted to even have the declared *shape*.  A reply
whose fields do not is charged the flat message-handling cost, installs
nothing and leaves one ``malformed-message`` event: ``SimNode.receive``
refuses it before the cost model or the recovery coordinator reads a field,
because a raise from either escapes ``run_until_idle`` and takes the whole
run down with it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import BatchConfig, CheckpointConfig, LatencyConfig, SystemConfig
from repro.bft.quorum import ViewChangeCertificate
from repro.common.ids import NO_BATCH
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
        refused = [e.node for e in system.env.obs.recorder.events_of_kind("malformed-message")]
        assert (victim.counters.state_transfers_rejected, refused) == (rejected, [str(victim.node_id)])
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


def rejoin_by_hand(system):
    """Crash partition 0's member 3, commit past it, restart it empty.

    Returns ``(responder, victim, honest)``: ``honest`` are the fields of the
    reply a member holding the stable checkpoint would send, so the reply
    below is all the victim hears.
    """
    members = system.topology.members(0)
    responder, victim = system.replicas[members[1]], system.replicas[members[3]]
    system.crash_replica(victim.node_id)
    write(system, 6, tag="during")
    system.fault_injector.restart(victim.node_id)
    victim.crashed = False
    victim.reset_for_recovery()
    victim.recovery.in_progress = True
    stable = responder.checkpoints.stable_image
    honest = dict(
        partition=0,
        image=stable,
        certificate=responder.checkpoints.stable_certificate,
        entries=responder.log.entries_from(stable.seq + 1),
        view=responder.engine.view,
        view_certificate=responder.engine.view_certificate,
        responder_tip=responder.log.last_seq,
    )
    assert stable.seq >= 0 and len(honest["entries"]) >= 2
    return responder, victim, honest


def forged_signatures(signatures):
    return tuple(dataclasses.replace(sig, value=b"\x00" * len(sig.value)) for sig in signatures)


def first_entry(change):
    """Forge the first log entry above the image with ``change(entries)``."""
    def forge(fields):
        entries = fields["entries"]
        return {"entries": (change(entries),) + entries[1:]}
    return forge


#: (id, the fields a byzantine member changes in an otherwise honest reply)
#: — one per refusal of ``_verify_image`` and ``_verify_entry``.
FORGED = [
    ("image-of-another-partition",
     lambda f: {"image": dataclasses.replace(f["image"], partition=1)}),
    ("no-image", lambda f: {"image": None}),
    ("image-without-certificate", lambda f: {"certificate": None}),
    ("image-without-certificate-or-header", lambda f: {
        "certificate": None, "image": dataclasses.replace(f["image"], header=None, prepared=())}),
    ("genesis-image-with-state",
     lambda f: {"certificate": None, "image": dataclasses.replace(f["image"], seq=NO_BATCH)}),
    ("certificate-not-covering-the-image",
     lambda f: {"image": dataclasses.replace(
         f["image"],
         items=tuple((key, version, b"forged") for key, version, _ in f["image"].items),
     )}),
    ("certificate-not-covering-the-versions",
     lambda f: {"image": dataclasses.replace(
         f["image"],
         items=tuple((key, version + 1, value) for key, version, value in f["image"].items),
     )}),
    ("checkpoint-signatures-forged",
     lambda f: {"certificate": dataclasses.replace(
         f["certificate"], signatures=forged_signatures(f["certificate"].signatures))}),
    ("image-header-missing", lambda f: {"image": dataclasses.replace(f["image"], header=None)}),
    ("image-header-uncertified",
     lambda f: {"image": dataclasses.replace(
         f["image"],
         header=dataclasses.replace(f["image"].header, content_digest=b"\x00" * 32))}),
    ("entry-not-a-batch", first_entry(lambda e: dataclasses.replace(e[0], value=7))),
    ("entry-batch-of-another-seq",
     first_entry(lambda e: dataclasses.replace(e[0], value=e[1].value))),
    ("entry-certificate-of-another-seq",
     first_entry(lambda e: dataclasses.replace(e[0], certificate=e[1].certificate))),
    ("entry-signatures-forged",
     first_entry(lambda e: dataclasses.replace(e[0], certificate=dataclasses.replace(
         e[0].certificate, signatures=forged_signatures(e[0].certificate.signatures))))),
]


class TestForgedStateTransferReply:
    @pytest.mark.parametrize("forge", [case[1] for case in FORGED], ids=[case[0] for case in FORGED])
    def test_forged_reply_is_rejected_and_installs_nothing(self, forge):
        system = make_system()
        responder, victim, honest = rejoin_by_hand(system)
        held = (victim.log.last_seq, victim.merkle.root, len(victim.store))

        responder.send(victim.node_id, StateTransferReply(**{**honest, **forge(honest)}))
        system.run_until_idle()

        assert victim.counters.state_transfers_rejected == 1
        assert (victim.log.last_seq, victim.merkle.root, len(victim.store)) == held
        assert victim.recovery.in_progress
        assert victim.counters.recoveries_completed == 0

        # The honest reply from the same member still installs.
        responder.send(victim.node_id, StateTransferReply(**honest))
        system.run_until_idle()
        assert victim.counters.recoveries_completed == 1
        assert victim.merkle.root == responder.merkle.root


def view_above(votes):
    """Advertise the view above the responder's, "certified" by ``votes``."""
    def forge(fields):
        view = fields["view"] + 1
        return {"view": view, "view_certificate": ViewChangeCertificate(view, votes)}
    return forge


def image_with(**changes):
    return lambda fields: {"image": dataclasses.replace(fields["image"], **changes)}


#: (id, one junk value nested inside an otherwise honest reply) — each used to
#: raise out of the run from the recovery session or the install.
NESTED = [
    ("checkpoint-signatures-none",
     lambda f: {"certificate": dataclasses.replace(f["certificate"], signatures=None)}),
    ("view-votes-none", view_above(None)),
    ("view-vote-not-a-pair", view_above(((1,),))),
    ("image-items-none", image_with(items=None)),
    ("image-prepared-none", image_with(prepared=None)),
    ("image-decisions-none", image_with(decisions=None)),
    ("image-prepared-headers-none", image_with(prepared_headers=None)),
    ("image-seq-not-an-int", image_with(seq="x")),
]


class TestNestedJunkInStateTransferReply:
    @pytest.mark.parametrize("forge", [case[1] for case in NESTED], ids=[case[0] for case in NESTED])
    def test_refused_at_the_boundary_and_installs_nothing(self, forge):
        system = make_system()
        responder, victim, honest = rejoin_by_hand(system)
        held = (victim.log.last_seq, victim.merkle.root, len(victim.store), victim.engine.view)

        responder.send(victim.node_id, StateTransferReply(**{**honest, **forge(honest)}))
        system.run_until_idle()  # nothing raises out of the run

        refused = [e.node for e in system.env.obs.recorder.events_of_kind("malformed-message")]
        assert refused == [str(victim.node_id)]
        assert victim.counters.state_transfers_rejected == 0
        assert (victim.log.last_seq, victim.merkle.root, len(victim.store), victim.engine.view) == held
        assert victim.recovery.in_progress
        assert victim.counters.recoveries_completed == 0

        # The honest reply from the same member still installs.
        responder.send(victim.node_id, StateTransferReply(**honest))
        system.run_until_idle()
        assert victim.counters.recoveries_completed == 1
        assert victim.merkle.root == responder.merkle.root
