"""Tests for batches, certified headers and the prepared-batches structure."""

from __future__ import annotations

import pytest

from repro.bft.quorum import CommitCertificate, certificate_payload
from repro.common.errors import TransactionError
from repro.common.ids import NO_BATCH, ReplicaId
from repro.core.batch import (
    Batch,
    CommitRecord,
    PreparedRecord,
    PreparedVote,
    ReadOnlySegment,
)
from repro.core.cdvector import CDVector
from repro.core.occ import KeyConflictIndex
from repro.core.prepared import PreparedBatches
from repro.core.transaction import TxnPayload
from repro.crypto.hashing import sha256
from repro.crypto.signatures import HmacSigner, KeyRegistry
from repro.storage.partitioner import HashPartitioner


def make_ro_segment(num_partitions=2, lce=NO_BATCH, root=b"", timestamp=0.0):
    return ReadOnlySegment(
        cd_vector=CDVector.initial(num_partitions),
        lce=lce,
        merkle_root=root or sha256(b"root"),
        timestamp_ms=timestamp,
    )


def _prepared():
    return PreparedBatches(KeyConflictIndex(0, HashPartitioner(1)))


def make_batch(partition=0, number=0, local=(), prepared=(), committed=(), ro=None):
    return Batch(
        partition=partition,
        number=number,
        local_txns=tuple(local),
        prepared=tuple(prepared),
        committed=tuple(committed),
        read_only=ro or make_ro_segment(),
    )


class TestBatchDigests:
    def test_digest_changes_with_content(self):
        txn = TxnPayload("t1", writes={"a": b"1"})
        empty = make_batch()
        with_txn = make_batch(local=[txn])
        assert empty.digest() != with_txn.digest()

    def test_digest_changes_with_read_only_segment(self):
        base = make_batch()
        other = make_batch(ro=make_ro_segment(lce=3))
        assert base.digest() != other.digest()

    def test_digest_is_stable_and_cached(self):
        batch = make_batch(local=[TxnPayload("t", writes={"a": b"1"})])
        assert batch.digest() == batch.digest()
        assert batch.content_digest() == batch.content_digest()

    def test_size_counts_all_segments(self):
        txn = TxnPayload("t", writes={"a": b"1"})
        record = PreparedRecord(txn=TxnPayload("p", writes={"b": b"1"}), coordinator=0)
        commit = CommitRecord(
            txn=TxnPayload("c", writes={"c": b"1"}),
            coordinator=1,
            decision=True,
            prepare_batch=0,
        )
        batch = make_batch(local=[txn], prepared=[record], committed=[commit])
        assert batch.size() == 3


class TestVisibleWrites:
    def test_local_and_committed_writes_visible_prepared_not(self):
        partitioner = HashPartitioner(1)
        local = TxnPayload("l", writes={"a": b"local"})
        prepared = PreparedRecord(
            txn=TxnPayload("p", writes={"b": b"dirty"}), coordinator=0
        )
        committed = CommitRecord(
            txn=TxnPayload("c", writes={"c": b"committed"}),
            coordinator=0,
            decision=True,
            prepare_batch=0,
        )
        aborted = CommitRecord(
            txn=TxnPayload("x", writes={"d": b"aborted"}),
            coordinator=0,
            decision=False,
            prepare_batch=0,
        )
        batch = make_batch(local=[local], prepared=[prepared], committed=[committed, aborted])
        writes = batch.visible_writes(partitioner)
        assert writes == {"a": b"local", "c": b"committed"}

    def test_visible_writes_respect_partition_ownership(self):
        partitioner = HashPartitioner(2)
        keys = ["k0", "k1", "k2", "k3", "k4"]
        by_partition = {p: [k for k in keys if partitioner.partition_of(k) == p] for p in (0, 1)}
        assert by_partition[0] and by_partition[1]
        txn = TxnPayload("t", writes={k: b"v" for k in keys})
        batch = make_batch(partition=0, local=[txn])
        writes = batch.visible_writes(partitioner)
        assert set(writes) == set(by_partition[0])


class TestCertifiedHeader:
    def _make_certified(self, batch, members, signers, registry):
        payload = certificate_payload(view=0, seq=batch.number, digest=batch.digest())
        signatures = tuple(signers[m].sign(payload) for m in members[:3])
        certificate = CommitCertificate(
            partition=batch.partition,
            view=0,
            seq=batch.number,
            digest=batch.digest(),
            signatures=signatures,
        )
        return batch.certified_header(certificate)

    @pytest.fixture
    def cluster(self):
        registry = KeyRegistry()
        members = [ReplicaId(0, i) for i in range(4)]
        signers = {m: HmacSigner(str(m)) for m in members}
        for signer in signers.values():
            registry.register(signer)
        return registry, members, signers

    def test_valid_header_verifies(self, cluster):
        registry, members, signers = cluster
        batch = make_batch(local=[TxnPayload("t", writes={"a": b"1"})])
        header = self._make_certified(batch, members, signers, registry)
        assert header.verify(registry, members, required=2)
        assert header.merkle_root == batch.read_only.merkle_root
        assert header.lce == batch.read_only.lce

    def test_header_with_wrong_partition_fails(self, cluster):
        registry, members, signers = cluster
        batch = make_batch()
        header = self._make_certified(batch, members, signers, registry)
        tampered = type(header)(
            partition=1,
            number=header.number,
            read_only=header.read_only,
            content_digest=header.content_digest,
            certificate=header.certificate,
        )
        assert not tampered.verify(registry, members, required=2)

    def test_header_with_tampered_read_only_segment_fails(self, cluster):
        registry, members, signers = cluster
        batch = make_batch()
        header = self._make_certified(batch, members, signers, registry)
        tampered = type(header)(
            partition=header.partition,
            number=header.number,
            read_only=make_ro_segment(lce=99),
            content_digest=header.content_digest,
            certificate=header.certificate,
        )
        assert not tampered.verify(registry, members, required=2)

    def test_header_with_insufficient_signatures_fails(self, cluster):
        registry, members, signers = cluster
        batch = make_batch()
        header = self._make_certified(batch, members, signers, registry)
        assert not header.verify(registry, members, required=4)


class TestCommitRecord:
    def test_reported_vectors_only_from_positive_votes(self):
        txn = TxnPayload("t", writes={"a": b"1", "b": b"2"})
        yes = PreparedVote(
            txn_id="t", partition=1, vote=True, prepare_batch=4,
            cd_vector=CDVector.from_entries([1, 4]),
        )
        no = PreparedVote(txn_id="t", partition=0, vote=False)
        record = CommitRecord(
            txn=txn, coordinator=0, decision=False, prepare_batch=2,
            votes={1: yes, 0: no},
        )
        assert record.reported_vectors() == (CDVector.from_entries([1, 4]),)
        assert not record.committed


class TestPreparedBatches:
    def _record(self, txn_id, keys=("a",), decision=True):
        txn = TxnPayload(txn_id, writes={k: b"v" for k in keys})
        return PreparedRecord(txn=txn, coordinator=0), CommitRecord(
            txn=txn, coordinator=0, decision=decision, prepare_batch=0
        )

    def test_groups_track_records_and_decisions(self):
        prepared = _prepared()
        record, decision = self._record("t1")
        prepared.add_group(0, [record])
        assert 0 in prepared
        assert not prepared.group(0).is_ready()
        prepared.record_decision(decision)
        assert prepared.group(0).is_ready()
        assert list(prepared.pending_transactions()) == []  # nothing left undecided

    def test_empty_group_is_not_created(self):
        prepared = _prepared()
        prepared.add_group(0, [])
        assert len(prepared) == 0

    def test_duplicate_group_rejected(self):
        prepared = _prepared()
        record, _ = self._record("t1")
        prepared.add_group(0, [record])
        with pytest.raises(TransactionError):
            prepared.add_group(0, [record])

    def test_decision_for_unknown_txn_rejected(self):
        prepared = _prepared()
        _, decision = self._record("ghost")
        with pytest.raises(TransactionError):
            prepared.record_decision(decision)

    def test_ordering_constraint_prefix(self):
        prepared = _prepared()
        record_a, decision_a = self._record("a", keys=("ka",))
        record_b, decision_b = self._record("b", keys=("kb",))
        record_c, decision_c = self._record("c", keys=("kc",))
        prepared.add_group(0, [record_a])
        prepared.add_group(1, [record_b])
        prepared.add_group(2, [record_c])

        # Deciding a later group first must not release anything.
        prepared.record_decision(decision_c)
        assert prepared.ready_prefix() == []

        prepared.record_decision(decision_a)
        ready = prepared.ready_prefix()
        assert [group.batch_number for group in ready] == [0]

        prepared.record_decision(decision_b)
        assert [group.batch_number for group in prepared.ready_prefix()] == [0, 1, 2]

    def test_pending_transactions_lists_undecided_only(self):
        prepared = _prepared()
        record_a, decision_a = self._record("a")
        record_b, _ = self._record("b", keys=("kb",))
        prepared.add_group(0, [record_a, record_b])
        prepared.record_decision(decision_a)
        pending = dict(prepared.pending_transactions())
        assert set(pending) == {"b"}

    def test_group_of_txn_and_remove(self):
        prepared = _prepared()
        record, _ = self._record("t1")
        prepared.add_group(3, [record])
        assert prepared.group_of_txn("t1").batch_number == 3
        assert prepared.group_of_txn("nope") is None
        # The rule-3 footprint index follows the groups.
        assert "t1" in prepared.index
        prepared.remove_group(3)
        assert prepared.group_of_txn("t1") is None
        assert prepared.group_numbers() == []
        assert "t1" not in prepared.index

    def test_ordered_decisions_are_deterministic(self):
        prepared = _prepared()
        record_b, decision_b = self._record("b", keys=("kb",))
        record_a, decision_a = self._record("a", keys=("ka",))
        prepared.add_group(0, [record_b, record_a])
        prepared.record_decision(decision_b)
        prepared.record_decision(decision_a)
        ordered = prepared.group(0).ordered_decisions()
        assert [record.txn.txn_id for record in ordered] == ["a", "b"]
