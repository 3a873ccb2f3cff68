"""Tests for the client-side read-only logic: Algorithm 2 and verification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.bft.quorum import CommitCertificate, certificate_payload
from repro.common.config import SystemConfig
from repro.common.errors import ReadOnlyProtocolError
from repro.common.ids import NO_BATCH, ReplicaId
from repro.core.batch import Batch, ReadOnlySegment
from repro.core.cdvector import CDVector
from repro.core.readonly import (
    PartitionSnapshot,
    assemble_result,
    find_unsatisfied_dependencies,
    verify_snapshot,
)
from repro.core.topology import ClusterTopology
from repro.core.transaction import TxnPayload
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import HmacSigner, KeyRegistry


def snapshot_with(partition, cd_entries, lce, keys=()):
    """Snapshot carrying only the dependency metadata (header unverified)."""
    segment = ReadOnlySegment(
        cd_vector=CDVector.from_entries(cd_entries),
        lce=lce,
        merkle_root=b"",
        timestamp_ms=0.0,
    )
    batch = Batch(partition=partition, number=max(cd_entries), read_only=segment)
    certificate = CommitCertificate(
        partition=partition, view=0, seq=batch.number, digest=batch.digest(), signatures=()
    )
    return PartitionSnapshot(
        partition=partition,
        keys=tuple(keys),
        header=batch.certified_header(certificate),
    )


class TestAlgorithm2:
    def test_satisfied_dependencies_need_no_second_round(self):
        # X's batch depends on Y's prepare batch 5; Y's LCE is already 5.
        snapshots = {
            0: snapshot_with(0, [2, 5], lce=0),
            1: snapshot_with(1, [-1, 8], lce=5),
        }
        assert find_unsatisfied_dependencies(snapshots) == {}

    def test_unsatisfied_dependency_triggers_request(self):
        # The motivating example of Figure 1: X read at batch 4 with a
        # dependency on Y's prepare batch 4, but Y's snapshot has LCE 2.
        snapshots = {
            0: snapshot_with(0, [4, 4], lce=2),
            1: snapshot_with(1, [-1, 4], lce=2),
        }
        required = find_unsatisfied_dependencies(snapshots)
        assert required == {1: 4}

    def test_requirements_take_the_maximum_dependency(self):
        snapshots = {
            0: snapshot_with(0, [3, 6, -1], lce=1),
            1: snapshot_with(1, [-1, 7, -1], lce=2),
            2: snapshot_with(2, [-1, 9, 5], lce=0),
        }
        required = find_unsatisfied_dependencies(snapshots)
        assert required[1] == 9

    def test_no_dependency_entries_are_ignored(self):
        snapshots = {
            0: snapshot_with(0, [0, NO_BATCH], lce=NO_BATCH),
            1: snapshot_with(1, [NO_BATCH, 0], lce=NO_BATCH),
        }
        assert find_unsatisfied_dependencies(snapshots) == {}

    def test_single_partition_never_needs_second_round(self):
        snapshots = {0: snapshot_with(0, [9], lce=NO_BATCH)}
        assert find_unsatisfied_dependencies(snapshots) == {}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.data(),
    )
    def test_round_two_requirements_are_always_satisfiable_dependencies(self, n, data):
        """Whatever is requested in round 2 is a dependency some partition reported."""
        snapshots = {}
        for partition in range(n):
            entries = [
                data.draw(st.integers(min_value=-1, max_value=10)) for _ in range(n)
            ]
            lce = data.draw(st.integers(min_value=-1, max_value=10))
            snapshots[partition] = snapshot_with(partition, entries, lce)
        required = find_unsatisfied_dependencies(snapshots)
        for partition, needed in required.items():
            reported = [
                snapshots[i].header.cd_vector[partition]
                for i in snapshots
                if i != partition
            ]
            assert needed in reported
            assert needed > snapshots[partition].lce


class TestAssembleResult:
    def test_values_come_from_owning_snapshot(self):
        snap0 = snapshot_with(0, [0, -1], lce=-1, keys=("a",))
        snap0.values["a"] = b"va"
        snap0.versions["a"] = 3
        snap1 = snapshot_with(1, [-1, 0], lce=-1, keys=("b",))
        snap1.values["b"] = b"vb"
        snap1.versions["b"] = 5
        values, versions = assemble_result({0: snap0, 1: snap1}, ["a", "b"])
        assert values == {"a": b"va", "b": b"vb"}
        assert versions == {"a": 3, "b": 5}

    def test_missing_key_in_snapshot_maps_to_none(self):
        snap0 = snapshot_with(0, [0], lce=-1, keys=("a",))
        values, versions = assemble_result({0: snap0}, ["a"])
        assert values == {"a": None}
        assert versions == {"a": NO_BATCH}

    def test_unrequested_partition_raises(self):
        snap0 = snapshot_with(0, [0], lce=-1, keys=("a",))
        with pytest.raises(ReadOnlyProtocolError):
            assemble_result({0: snap0}, ["a", "not-owned"])


class TestVerifySnapshot:
    @pytest.fixture
    def setup(self):
        config = SystemConfig(num_partitions=2, fault_tolerance=1)
        topology = ClusterTopology(config)
        registry = KeyRegistry()
        signers = {}
        for member in topology.all_replicas():
            signer = HmacSigner(str(member))
            signers[member] = signer
            registry.register(signer)
        return config, topology, registry, signers

    def _certified_snapshot(self, partition, items, keys, config, topology, signers):
        tree = MerkleTree(items)
        segment = ReadOnlySegment(
            cd_vector=CDVector.initial(config.num_partitions),
            lce=NO_BATCH,
            merkle_root=tree.root,
            timestamp_ms=100.0,
        )
        batch = Batch(partition=partition, number=0, read_only=segment)
        payload = certificate_payload(view=0, seq=0, digest=batch.digest())
        members = topology.members(partition)
        signatures = tuple(signers[m].sign(payload) for m in members[: config.quorum_size])
        certificate = CommitCertificate(
            partition=partition, view=0, seq=0, digest=batch.digest(), signatures=signatures
        )
        snapshot = PartitionSnapshot(
            partition=partition,
            keys=tuple(keys),
            values={k: items[k] for k in keys},
            versions={k: 0 for k in keys},
            proofs={k: tree.prove(k) for k in keys},
            header=batch.certified_header(certificate),
        )
        return snapshot

    def test_honest_snapshot_verifies(self, setup):
        config, topology, registry, signers = setup
        items = {f"k{i}": f"v{i}".encode() for i in range(8)}
        snapshot = self._certified_snapshot(0, items, ["k1", "k2"], config, topology, signers)
        assert verify_snapshot(snapshot, registry, topology, config)

    def test_tampered_value_fails_proof(self, setup):
        config, topology, registry, signers = setup
        items = {f"k{i}": f"v{i}".encode() for i in range(8)}
        snapshot = self._certified_snapshot(0, items, ["k1"], config, topology, signers)
        snapshot.values["k1"] = b"forged"
        assert not verify_snapshot(snapshot, registry, topology, config)

    def test_missing_proof_fails(self, setup):
        config, topology, registry, signers = setup
        items = {f"k{i}": f"v{i}".encode() for i in range(4)}
        snapshot = self._certified_snapshot(0, items, ["k1"], config, topology, signers)
        snapshot.proofs.clear()
        assert not verify_snapshot(snapshot, registry, topology, config)

    def test_missing_header_fails(self, setup):
        config, topology, registry, _ = setup
        snapshot = PartitionSnapshot(partition=0, keys=("k",))
        assert not verify_snapshot(snapshot, registry, topology, config)

    def test_header_signed_by_wrong_cluster_fails(self, setup):
        config, topology, registry, signers = setup
        items = {f"k{i}": f"v{i}".encode() for i in range(4)}
        # Sign with partition 1's members but claim partition 0.
        tree = MerkleTree(items)
        segment = ReadOnlySegment(
            cd_vector=CDVector.initial(config.num_partitions),
            lce=NO_BATCH,
            merkle_root=tree.root,
            timestamp_ms=0.0,
        )
        batch = Batch(partition=0, number=0, read_only=segment)
        payload = certificate_payload(view=0, seq=0, digest=batch.digest())
        wrong_members = topology.members(1)
        signatures = tuple(signers[m].sign(payload) for m in wrong_members[:3])
        certificate = CommitCertificate(
            partition=0, view=0, seq=0, digest=batch.digest(), signatures=signatures
        )
        snapshot = PartitionSnapshot(
            partition=0,
            keys=("k1",),
            values={"k1": items["k1"]},
            versions={"k1": 0},
            proofs={"k1": tree.prove("k1")},
            header=batch.certified_header(certificate),
        )
        assert not verify_snapshot(snapshot, registry, topology, config)

    def test_stale_snapshot_rejected_when_bound_configured(self, setup):
        config, topology, registry, signers = setup
        config = config.with_updates(
            freshness=config.freshness.__class__(client_staleness_bound_ms=50.0)
        )
        items = {"k1": b"v1", "k2": b"v2"}
        snapshot = self._certified_snapshot(0, items, ["k1"], config, topology, signers)
        # Header timestamp is 100.0; at now=120 it is fresh, at now=500 stale.
        assert verify_snapshot(snapshot, registry, topology, config, now_ms=120.0)
        assert not verify_snapshot(snapshot, registry, topology, config, now_ms=500.0)
