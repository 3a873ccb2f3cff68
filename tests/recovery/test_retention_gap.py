"""Regression tests for the (now closed) 2PC retention gap.

Resuming a predecessor's unfinished coordination rebuilds the coordinator's
vote from the *retained certified header* of the prepare batch.  That header
used to be prunable: checkpoint GC dropped headers older than the retention
window regardless of whether an undecided prepare group still needed them,
so a coordination whose prepare batch aged past the window could not be
resumed.  The gap is closed two ways — GC pins headers of undecided prepare
batches past the window, and :class:`SnapshotImage` carries them (verified
against their own consensus certificates) so a restored replica can resume
its predecessor's 2PC.  These tests pin the closure, and pin that the
genuinely-absent-header case (reachable only through planted/byzantine
state) is still *reported* (diagnostic + counter), not a silent stall.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    LatencyConfig,
    SystemConfig,
)
from repro.core.batch import PreparedRecord
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload
from repro.core.twopc import Retry, own_vote
from repro.recovery.snapshot import SnapshotImage
from repro.recovery.transfer import StateTransferError


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


def make_checkpointed_system(**overrides) -> TransEdgeSystem:
    overrides.setdefault(
        "checkpoint",
        CheckpointConfig(enabled=True, interval_batches=3, retention_batches=3),
    )
    return make_system(**overrides)


def _planted_record(system: TransEdgeSystem, txn_id: str) -> PreparedRecord:
    key0 = system.keys_of_partition(0)[-1]
    key1 = system.keys_of_partition(1)[-1]
    txn = TxnPayload(
        txn_id=txn_id, reads={}, writes={key0: b"a", key1: b"b"}, client="test"
    )
    return PreparedRecord(txn=txn, coordinator=0)


def plant_pending_coordination(
    system: TransEdgeSystem, txn_id: str, batch_number: int
) -> PreparedRecord:
    """Install a prepared-but-undecided coordinator-side group directly.

    Prepare groups are replicated state (every replica mirrors them from
    delivered batches), so the group goes onto *every* member of the
    coordinator cluster — planting it on the leader alone would diverge the
    cluster's checkpoint images and send the progress monitors hunting a
    phantom stall.
    """
    record = _planted_record(system, txn_id)
    for member in system.topology.members(0):
        replica = system.replicas[member]
        replica.prepared_batches.add_group(batch_number, [record])
    return record


def plant_stale_coordination(system: TransEdgeSystem, txn_id: str) -> PreparedRecord:
    """Install, on the leader, a prepared group whose header is already gone.

    The group claims its prepare was written in batch 1; only the genesis
    header (batch 0) is retained at this point, so ``header_at(1)`` returns
    None — exactly the state a byzantine image source (the one remaining
    path to a missing header) leaves behind.
    """
    leader = system.leader_replica(0)
    record = _planted_record(system, txn_id)
    leader.prepared_batches.add_group(1, [record])
    assert leader.header_at(1) is None
    return record


def resume(leader, txn_id: str) -> None:
    """Re-drive a written prepare as a newly elected leader does."""
    role = leader.leader_role
    role._step(txn_id, Retry(role._prepare(txn_id), timer=False))


def run_writes(system: TransEdgeSystem, client, keys, count: int, tag: str) -> list:
    results = []

    def body():
        for i in range(count):
            result = yield from client.read_write_txn(
                [], {keys[i % len(keys)]: f"{tag}{i}".encode()}
            )
            results.append(result)

    client.spawn(body())
    system.run_until_idle()
    return results


class TestRetentionGapDiagnostic:
    def test_unresumable_coordination_is_reported_once(self):
        system = make_system()
        leader = system.leader_replica(0)
        plant_stale_coordination(system, "stale-txn")

        resume(leader, "stale-txn")
        assert leader.counters.two_pc_unresumable == 1
        diagnostic = leader.leader_role.unresumable["stale-txn"]
        assert "retention" in diagnostic
        assert "prepare batch 1" in diagnostic
        # Both places the header should have survived are named, so the
        # report pinpoints what a byzantine image source withheld.
        assert "checkpoint image" in diagnostic

        # Re-driving again does not double-count the same coordination.
        resume(leader, "stale-txn")
        assert leader.counters.two_pc_unresumable == 1
        assert system.counters().two_pc_unresumable == 1

    def test_retry_timer_path_reports_unresumable(self):
        # The organic path: the 2PC retry timer finds the pending group and
        # attempts to resume it; the retention gap surfaces as a diagnostic
        # and the retry budget still winds down (no infinite timer loop).
        system = make_system()
        leader = system.leader_replica(0)
        plant_stale_coordination(system, "stale-timer-txn")

        leader.leader_role.nudge_two_pc()
        system.run_until_idle()

        assert leader.counters.two_pc_unresumable == 1
        assert "stale-timer-txn" in leader.leader_role.unresumable
        assert leader.counters.two_pc_retries >= 1

    def test_resumable_coordination_is_not_flagged(self):
        # A coordination whose header *is* retained resumes normally and
        # must not be reported unresumable.
        system = make_system()
        client = system.create_client("w")
        keys = [system.keys_of_partition(0)[0], system.keys_of_partition(1)[0]]
        results = []

        def body():
            result = yield from client.read_write_txn([], {k: b"v" for k in keys})
            results.append(result)

        client.spawn(body())
        system.run_until_idle()
        assert results and results[0].committed
        assert system.counters().two_pc_unresumable == 0


class TestRetentionGapClosed:
    def test_gc_pins_headers_of_undecided_prepare_batches(self):
        # Direct unit check of the pin: prune far past a pending group's
        # prepare batch and its header must survive while its neighbours go.
        system = make_checkpointed_system()
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:4]
        run_writes(system, client, keys, 3, "a")
        leader = system.leader_replica(0)
        assert leader.header_at(1) is not None
        plant_pending_coordination(system, "pinned-txn", 1)

        leader.prune_headers_below(leader.log.last_seq)
        assert leader.header_at(1) is not None
        assert leader.header_at(2) is None  # no pin, genuinely pruned

    def test_aged_coordination_resumes_organically(self):
        # End to end on the live path: a coordination whose prepare batch
        # ages far past the retention window is re-driven by the 2PC retry
        # timer, completes, and is never reported unresumable.
        system = make_checkpointed_system()
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:4]
        run_writes(system, client, keys, 2, "a")
        leader = system.leader_replica(0)
        assert leader.header_at(1) is not None
        plant_pending_coordination(system, "aged-txn", 1)

        # Push checkpoints well past batch 1's retention window while the
        # retry timer resumes the planted coordination in the background.
        run_writes(system, client, keys, 12, "b")

        assert system.counters().two_pc_unresumable == 0
        assert leader.leader_role.unresumable == {}
        assert leader.prepared_batches.group_of_txn("aged-txn") is None
        assert leader.counters.distributed_committed >= 1

    def test_checkpoint_image_carries_prepare_batch_headers(self):
        # The restore path: capture an image while a coordination is still
        # undecided, wipe the replica, install the image — the carried
        # header lets the new leader rebuild its vote instead of reporting
        # the coordination unresumable.
        system = make_checkpointed_system()
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:4]
        run_writes(system, client, keys, 2, "a")
        leader = system.leader_replica(0)
        plant_pending_coordination(system, "carried-txn", 1)

        image = SnapshotImage.capture(leader, leader.log.last_seq)
        assert [h.number for h in image.prepared_headers] == [1]

        leader.reset_for_recovery()
        leader.install_snapshot(image, None)
        assert leader.header_at(1) is not None
        assert leader.prepared_batches.group_of_txn("carried-txn") is not None

        resume(leader, "carried-txn")
        assert leader.counters.two_pc_unresumable == 0
        assert leader.leader_role.unresumable == {}
        # Resumed: vote collection open, and the own vote — derived from the
        # carried header, never stored — is positive.
        assert leader.leader_role._txns["carried-txn"].votes == {}
        vote = own_vote(leader.leader_role._prepare("carried-txn"))
        assert vote is not None and vote.vote

    def test_tampered_carried_header_is_rejected(self):
        # The carried headers are digest-excluded, so install must verify
        # each against its own consensus certificate; a substituted header
        # fails state transfer instead of poisoning 2PC resumption.
        system = make_checkpointed_system()
        client = system.create_client("w")
        keys = system.keys_of_partition(0)[:4]
        run_writes(system, client, keys, 2, "a")
        leader = system.leader_replica(0)
        plant_pending_coordination(system, "forged-txn", 1)

        image = SnapshotImage.capture(leader, leader.log.last_seq)
        forged = dataclasses.replace(
            image.prepared_headers[0],
            content_digest=bytes(len(image.prepared_headers[0].content_digest)),
        )
        bad = dataclasses.replace(image, prepared_headers=(forged,))

        leader.reset_for_recovery()
        with pytest.raises(StateTransferError):
            leader.install_snapshot(bad, None)
