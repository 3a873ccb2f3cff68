"""Replica-side validation: a byzantine leader cannot commit bad batches.

These tests drive a PartitionReplica directly (no network) through its
consensus-application interface, the way the BFT engine does, and check that
forged or inconsistent proposals are rejected while honest ones are accepted
and applied.
"""

from __future__ import annotations

import pytest

from repro.bft.quorum import CommitCertificate, certificate_payload
from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.common.ids import NO_BATCH, ReplicaId
from repro.core.batch import Batch, PreparedRecord, ReadOnlySegment
from repro.core.cdvector import CDVector
from repro.core.replica import PartitionReplica
from repro.core.topology import ClusterTopology
from repro.core.transaction import TxnPayload
from repro.simnet.node import SimEnvironment
from repro.storage.partitioner import HashPartitioner


@pytest.fixture
def setup():
    config = SystemConfig(
        num_partitions=2,
        fault_tolerance=1,
        batch=BatchConfig(max_size=10, timeout_ms=2.0),
        latency=LatencyConfig(jitter_fraction=0.0),
        initial_keys=32,
    )
    env = SimEnvironment(config)
    topology = ClusterTopology(config)
    partitioner = HashPartitioner(config.num_partitions)
    initial = {f"key-{i:04d}": b"init" for i in range(32)}
    local = {k: v for k, v in initial.items() if partitioner.partition_of(k) == 0}
    replica = PartitionReplica(ReplicaId(0, 1), env, topology, partitioner, local)
    return env, replica, partitioner, local


def local_keys(partitioner, data, count):
    return sorted(data)[:count]


def honest_batch(replica, partitioner, data, number=0, txns=()):
    """Build the batch an honest leader would propose for ``txns``."""
    updates = {}
    for txn in txns:
        updates.update(txn.writes_in(replica.partition, partitioner))
    return Batch(
        partition=replica.partition,
        number=number,
        local_txns=tuple(txns),
        read_only=ReadOnlySegment(
            cd_vector=replica.current_cd_vector().with_entry(replica.partition, number),
            lce=replica.current_lce(),
            merkle_root=replica.merkle.preview_root(updates),
            timestamp_ms=replica.now,
        ),
    )


def certify(replica, batch):
    payload = certificate_payload(view=0, seq=batch.number, digest=batch.digest())
    members = replica.cluster_members
    signatures = []
    for member in members[:3]:
        signer = replica.env.new_signer(f"sig-source-{member}")
        # The certificate is only used for bookkeeping in these direct-drive
        # tests; header verification paths are covered elsewhere.
        signatures.append(signer.sign(payload))
    return CommitCertificate(
        partition=batch.partition, view=0, seq=batch.number,
        digest=batch.digest(), signatures=tuple(signatures),
    )


class TestProposalValidation:
    def test_honest_batch_is_accepted_and_applied(self, setup):
        env, replica, partitioner, data = setup
        keys = local_keys(partitioner, data, 2)
        txn = TxnPayload("t1", writes={keys[0]: b"new"})
        batch = honest_batch(replica, partitioner, data, number=0, txns=[txn])
        assert replica.validate_proposal(0, batch)
        replica.deliver(0, batch, certify(replica, batch))
        assert replica.store.latest(keys[0]).value == b"new"
        assert replica.last_header is not None
        assert replica.last_header.cd_vector[0] == 0

    def test_wrong_sequence_number_rejected(self, setup):
        _, replica, partitioner, data = setup
        batch = honest_batch(replica, partitioner, data, number=3)
        assert not replica.validate_proposal(0, batch)

    def test_wrong_partition_rejected(self, setup):
        _, replica, partitioner, data = setup
        batch = honest_batch(replica, partitioner, data, number=0)
        forged = Batch(
            partition=1,
            number=0,
            local_txns=batch.local_txns,
            read_only=batch.read_only,
        )
        assert not replica.validate_proposal(0, forged)

    def test_forged_merkle_root_rejected(self, setup):
        _, replica, partitioner, data = setup
        keys = local_keys(partitioner, data, 1)
        txn = TxnPayload("t1", writes={keys[0]: b"new"})
        honest = honest_batch(replica, partitioner, data, number=0, txns=[txn])
        forged = Batch(
            partition=honest.partition,
            number=honest.number,
            local_txns=honest.local_txns,
            read_only=ReadOnlySegment(
                cd_vector=honest.read_only.cd_vector,
                lce=honest.read_only.lce,
                merkle_root=b"\x00" * 32,
                timestamp_ms=honest.read_only.timestamp_ms,
            ),
        )
        assert not replica.validate_proposal(0, forged)
        assert replica.counters.validation_failures == 1

    def test_forged_cd_vector_rejected(self, setup):
        _, replica, partitioner, data = setup
        honest = honest_batch(replica, partitioner, data, number=0)
        forged = Batch(
            partition=honest.partition,
            number=honest.number,
            read_only=ReadOnlySegment(
                cd_vector=CDVector.from_entries([0, 99]),
                lce=honest.read_only.lce,
                merkle_root=honest.read_only.merkle_root,
                timestamp_ms=honest.read_only.timestamp_ms,
            ),
        )
        assert not replica.validate_proposal(0, forged)

    def test_forged_lce_rejected(self, setup):
        _, replica, partitioner, data = setup
        honest = honest_batch(replica, partitioner, data, number=0)
        forged = Batch(
            partition=honest.partition,
            number=honest.number,
            read_only=ReadOnlySegment(
                cd_vector=honest.read_only.cd_vector,
                lce=7,
                merkle_root=honest.read_only.merkle_root,
                timestamp_ms=honest.read_only.timestamp_ms,
            ),
        )
        assert not replica.validate_proposal(0, forged)

    def test_conflicting_transactions_in_one_batch_rejected(self, setup):
        _, replica, partitioner, data = setup
        keys = local_keys(partitioner, data, 1)
        txn_a = TxnPayload("a", writes={keys[0]: b"1"})
        txn_b = TxnPayload("b", writes={keys[0]: b"2"})
        batch = honest_batch(replica, partitioner, data, number=0, txns=[txn_a, txn_b])
        assert not replica.validate_proposal(0, batch)

    def test_stale_read_in_proposed_transaction_rejected(self, setup):
        _, replica, partitioner, data = setup
        keys = local_keys(partitioner, data, 1)
        first = TxnPayload("first", writes={keys[0]: b"1"})
        batch0 = honest_batch(replica, partitioner, data, number=0, txns=[first])
        assert replica.validate_proposal(0, batch0)
        replica.deliver(0, batch0, certify(replica, batch0))
        stale = TxnPayload("stale", reads={keys[0]: NO_BATCH}, writes={keys[0]: b"2"})
        batch1 = honest_batch(replica, partitioner, data, number=1, txns=[stale])
        assert not replica.validate_proposal(1, batch1)

    def test_commit_record_for_unknown_transaction_rejected(self, setup):
        _, replica, partitioner, data = setup
        from repro.core.batch import CommitRecord

        keys = local_keys(partitioner, data, 1)
        ghost = CommitRecord(
            txn=TxnPayload("ghost", writes={keys[0]: b"x"}),
            coordinator=0,
            decision=True,
            prepare_batch=0,
        )
        batch = Batch(
            partition=0,
            number=0,
            committed=(ghost,),
            read_only=honest_batch(replica, partitioner, data, number=0).read_only,
        )
        assert not replica.validate_proposal(0, batch)

    def test_stale_timestamp_rejected_by_freshness_window(self, setup):
        env, replica, partitioner, data = setup
        honest = honest_batch(replica, partitioner, data, number=0)

        def stamped(timestamp_ms):
            return Batch(
                partition=honest.partition,
                number=honest.number,
                read_only=ReadOnlySegment(
                    cd_vector=honest.read_only.cd_vector,
                    lce=honest.read_only.lce,
                    merkle_root=honest.read_only.merkle_root,
                    timestamp_ms=timestamp_ms,
                ),
            )

        # The replica's clock reads 0: the window is the shipped 30 s, and a
        # timestamp on its edge is still fresh.
        assert not replica.validate_proposal(0, stamped(-31_000.0))
        assert not replica.validate_proposal(0, stamped(30_000.5))
        assert replica.validate_proposal(0, stamped(-30_000.0))

    def test_prepared_segment_tracked_after_delivery(self, setup):
        _, replica, partitioner, data = setup
        keys = local_keys(partitioner, data, 2)
        remote_key = "remote-key-for-partition-1"
        txn = TxnPayload("d1", writes={keys[0]: b"x", remote_key: b"y"})
        record = PreparedRecord(txn=txn, coordinator=0)
        ro = honest_batch(replica, partitioner, data, number=0).read_only
        batch = Batch(partition=0, number=0, prepared=(record,), read_only=ro)
        assert replica.validate_proposal(0, batch)
        replica.deliver(0, batch, certify(replica, batch))
        assert replica.prepared_batches.group_of_txn("d1") is not None
        # A conflicting local transaction is now rejected (rule 3).
        conflicting = TxnPayload("c", writes={keys[0]: b"z"})
        next_batch = honest_batch(replica, partitioner, data, number=1, txns=[conflicting])
        assert not replica.validate_proposal(1, next_batch)


class TestSupersededProposal:
    def test_superseded_proposal_leaves_with_the_delivered_sequence(self, setup):
        # A view change or re-proposal can have a replica validate two
        # different batches for one sequence number; only one is delivered.
        _, replica, partitioner, data = setup
        keys = local_keys(partitioner, data, 2)
        first = honest_batch(
            replica, partitioner, data, txns=[TxnPayload("a", writes={keys[0]: b"1"})]
        )
        second = honest_batch(
            replica, partitioner, data, txns=[TxnPayload("b", writes={keys[1]: b"2"})]
        )
        assert replica.validate_proposal(0, second)
        assert replica.validate_proposal(0, first)
        replica.deliver(0, second, certify(replica, second))
        assert replica.store.latest(keys[1]).value == b"2"
        assert replica.store.latest(keys[0]).value == b"init"
        # The delivered batch's delta is the one installed, not the last validated.
        assert replica.merkle.root == second.read_only.merkle_root
