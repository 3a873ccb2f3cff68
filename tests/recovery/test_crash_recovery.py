"""Crash-then-restart faults and rejoin through state transfer."""

from __future__ import annotations

from repro.common.config import BatchConfig, CheckpointConfig, LatencyConfig, SystemConfig
from repro.core.messages import ReadOnlyReply, ReadOnlyRequest
from repro.core.readonly import PartitionSnapshot, verify_snapshot
from repro.core.system import TransEdgeSystem
from repro.recovery.messages import StateTransferReply
from repro.simnet.faults import FaultRule
from repro.simnet.proc import Call


def make_system(interval=5, retention=5, initial_keys=64):
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        initial_keys=initial_keys,
        batch=BatchConfig(max_size=4, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        checkpoint=CheckpointConfig(
            enabled=True, interval_batches=interval, retention_batches=retention
        ),
    )
    return TransEdgeSystem(config)


def run_local_writes(system, count, tag="w"):
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


def crash_restart_cycle(system, victim, writes_during_crash=20):
    """Crash ``victim``, advance the cluster without it, restart and drain."""
    system.crash_replica(victim)
    run_local_writes(system, writes_during_crash, tag="during")
    assert system.replicas[victim].log.last_seq < system.leader_replica(0).log.last_seq
    system.restart_replica(victim)
    system.run_until_idle()
    return system.replicas[victim]


class TestCrashRecovery:
    def test_restarted_replica_rejoins_via_checkpoint_and_suffix(self):
        system = make_system(interval=5)
        victim = system.topology.members(0)[2]
        run_local_writes(system, 25, tag="before")
        assert system.leader_replica(0).checkpoints.stable_seq > 0

        recovered = crash_restart_cycle(system, victim)
        leader = system.leader_replica(0)
        assert recovered.counters.recoveries_completed == 1
        assert recovered.log.last_seq == leader.log.last_seq
        assert recovered.merkle.root == leader.merkle.root
        # The truncated prefix never came back: recovery started at the
        # checkpoint image, not at batch 0.
        assert recovered.log.first_seq > 0
        assert system.counters().state_transfers_served >= 1
        # OCC metadata survived: versions match the leader's, not just values.
        for key in system.keys_of_partition(0)[:8]:
            assert recovered.store.version_of(key) == leader.store.version_of(key)

    def test_recovery_before_first_checkpoint_replays_from_genesis(self):
        system = make_system(interval=1000)  # no checkpoint will stabilise
        victim = system.topology.members(0)[1]
        run_local_writes(system, 6, tag="before")

        recovered = crash_restart_cycle(system, victim, writes_during_crash=6)
        leader = system.leader_replica(0)
        assert recovered.counters.recoveries_completed == 1
        assert recovered.log.first_seq == 0  # full replay, nothing truncated
        assert recovered.log.last_seq == leader.log.last_seq
        assert recovered.merkle.root == leader.merkle.root
        # The cluster's one shared genesis image survived the wipe: every
        # member (the restarted one included) still holds that same object.
        images = [r.checkpoints.snapshots.genesis for r in system.cluster_replicas(0)]
        assert all(image is images[0] for image in images)
        assert {image.digest() for image in images} == {images[0].digest()}

    def test_recovered_replica_serves_verified_read_only_snapshots(self):
        system = make_system(interval=5)
        victim = system.topology.members(0)[2]
        run_local_writes(system, 25, tag="before")
        recovered = crash_restart_cycle(system, victim)

        client = system.create_client("reader")
        keys = tuple(system.keys_of_partition(0)[:3])
        observed = {}

        def body():
            reply = yield Call(victim, ReadOnlyRequest(keys=keys), timeout_ms=5_000)
            assert isinstance(reply, ReadOnlyReply)
            snapshot = PartitionSnapshot(
                partition=0,
                keys=keys,
                values=dict(reply.values),
                versions=dict(reply.versions),
                proofs=dict(reply.proofs),
                header=reply.header,
            )
            observed["verified"] = verify_snapshot(
                snapshot, system.env.registry, system.topology, system.config,
                now_ms=client.now,
            )
            observed["values"] = dict(reply.values)

        client.spawn(body())
        system.run_until_idle()
        assert observed["verified"]
        leader = system.leader_replica(0)
        for key in keys:
            assert observed["values"][key] == leader.store.latest(key).value

    def test_recovered_replica_participates_in_later_consensus(self):
        system = make_system(interval=5)
        victim = system.topology.members(0)[2]
        run_local_writes(system, 15, tag="before")
        recovered = crash_restart_cycle(system, victim)

        delivered_before = recovered.counters.batches_delivered
        run_local_writes(system, 15, tag="after")
        assert recovered.counters.batches_delivered > delivered_before
        assert recovered.log.last_seq == system.leader_replica(0).log.last_seq
        assert recovered.merkle.root == system.leader_replica(0).merkle.root

    def test_tampered_state_transfer_reply_is_rejected(self):
        system = make_system(interval=5)
        victim = system.topology.members(0)[2]
        byzantine = system.topology.members(0)[3]
        run_local_writes(system, 25, tag="before")

        def forge(message):
            if message.image is not None:
                from repro.recovery.snapshot import SnapshotImage

                items = tuple(
                    (key, version, b"forged-by-byzantine-node")
                    for key, version, _ in message.image.items
                )
                message.image = SnapshotImage(
                    partition=message.image.partition,
                    seq=message.image.seq,
                    items=items,
                    prepared=message.image.prepared,
                    header=message.image.header,
                )
            return message

        system.fault_injector.tamper(
            FaultRule(src=byzantine, message_type=StateTransferReply), forge
        )
        recovered = crash_restart_cycle(system, victim)
        leader = system.leader_replica(0)
        # The forged image never verifies against the checkpoint certificate;
        # an honest peer's reply completes the recovery instead.
        assert recovered.counters.recoveries_completed == 1
        assert recovered.merkle.root == leader.merkle.root
        for key in system.keys_of_partition(0)[:8]:
            assert recovered.store.latest(key).value != b"forged-by-byzantine-node"

    def test_surviving_replicas_stay_bounded_across_the_fault(self):
        system = make_system(interval=5, retention=2, initial_keys=16)
        victim = system.topology.members(0)[2]
        run_local_writes(system, 30, tag="before")
        crash_restart_cycle(system, victim, writes_during_crash=30)
        run_local_writes(system, 30, tag="after")

        assert system.max_log_length() <= 5 + 3
        assert system.max_version_chain_length() <= (5 + 3) + 2 + 1
        counters = system.counters()
        assert counters.log_entries_truncated > 0
        assert counters.versions_pruned > 0

    def test_crashed_node_drops_everything_until_restart(self):
        system = make_system(interval=5)
        victim = system.topology.members(0)[2]
        run_local_writes(system, 5, tag="before")
        system.crash_replica(victim)
        assert system.fault_injector.is_crashed(victim)
        handled_before = system.replicas[victim].messages_handled
        run_local_writes(system, 10, tag="during")
        assert system.replicas[victim].messages_handled == handled_before
        system.restart_replica(victim)
        assert not system.fault_injector.is_crashed(victim)
        system.run_until_idle()
        assert system.replicas[victim].log.last_seq == system.leader_replica(0).log.last_seq
