"""Client-side logic of snapshot read-only transactions.

A distributed read-only transaction contacts a *single* node per accessed
partition, verifies the authenticity of each response (Merkle proofs against
the certified batch header), and then checks cross-partition consistency with
the Conflict-Dependency vectors (Algorithm 2 of the paper).  Any unsatisfied
dependency is repaired with one extra round that asks the lagging partition
for the specific snapshot the dependency names; Theorem 4.6 guarantees a
third round is never needed.

This module holds the pure (network-free) parts of that protocol so they can
be unit- and property-tested in isolation; :mod:`repro.core.client` wires
them to the simulated network.

Note on round counts: Theorem 4.6 argues one repair round suffices, but the
repair snapshot — the earliest whose LCE satisfies the dependency — also
carries every *other* commit up to that LCE (the ordering constraint commits
groups in order), and such a commit's counterpart on a third partition can
have landed in a batch later than that partition's round-1 snapshot.  The
client therefore re-runs this check after each repair and loops to a
fixpoint (``TransEdgeClient.MAX_REPAIR_ROUNDS`` bounds the degenerate case),
which is what actually guarantees the returned snapshot is a consistent cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ReadOnlyProtocolError
from repro.common.ids import NO_BATCH, BatchNumber, PartitionId
from repro.common.types import Key, Value
from repro.crypto.merkle import MerkleProof, verify_proof
from repro.crypto.signatures import KeyRegistry
from repro.core.batch import CertifiedHeader
from repro.core.topology import ClusterTopology


@dataclass
class PartitionSnapshot:
    """What one partition returned for a read-only transaction round."""

    partition: PartitionId
    keys: Tuple[Key, ...]
    values: Dict[Key, Value] = field(default_factory=dict)
    versions: Dict[Key, BatchNumber] = field(default_factory=dict)
    proofs: Dict[Key, MerkleProof] = field(default_factory=dict)
    header: Optional[CertifiedHeader] = None

    @classmethod
    def of(cls, partition: PartitionId, keys: Tuple[Key, ...], answer) -> "PartitionSnapshot":
        """What ``answer`` — a read reply or an edge section — claims for
        ``partition``'s ``keys``; nothing in it is believed before
        :func:`verify_snapshot`."""
        return cls(
            partition=partition,
            keys=keys,
            values=dict(answer.values),
            versions=dict(answer.versions),
            proofs=dict(answer.proofs),
            header=answer.header,
        )

    @property
    def lce(self) -> BatchNumber:
        if self.header is None:
            return NO_BATCH
        return self.header.lce

    @property
    def batch_number(self) -> BatchNumber:
        if self.header is None:
            return NO_BATCH
        return self.header.number


def verify_snapshot(
    snapshot: PartitionSnapshot,
    registry: KeyRegistry,
    topology: ClusterTopology,
    config: SystemConfig,
    now_ms: Optional[float] = None,
) -> bool:
    """Authenticate one partition's response.

    Checks, in order: the certified header carries enough valid cluster
    signatures over the batch digest; every returned value has a Merkle proof
    that verifies against the certified root; and, when a freshness bound is
    configured, that the batch timestamp is recent enough.
    """
    header = snapshot.header
    if header is None:
        return False
    if header.partition != snapshot.partition:
        return False
    members = topology.members(snapshot.partition)
    if not header.verify(registry, members, config.certificate_size):
        return False
    for key, value in snapshot.values.items():
        proof = snapshot.proofs.get(key)
        if proof is None:
            return False
        if not verify_proof(header.merkle_root, key, value, proof):
            return False
    bound = config.freshness.client_staleness_bound_ms
    if bound is not None and now_ms is not None:
        if now_ms - header.timestamp_ms > bound:
            return False
    return True


def find_unsatisfied_dependencies(
    snapshots: Mapping[PartitionId, PartitionSnapshot],
) -> Dict[PartitionId, BatchNumber]:
    """Algorithm 2: cross-check CD vectors against LCEs.

    For every ordered pair of accessed partitions ``(i, j)``, the dependency
    ``V_i[j]`` (a prepare-batch number at ``j``) is satisfied when partition
    ``j``'s response has ``LCE >= V_i[j]``.  The result maps each partition
    with at least one unsatisfied dependency to the highest prepare-batch
    number it must be asked for in round two.
    """
    required: Dict[PartitionId, BatchNumber] = {}
    for i, snapshot_i in snapshots.items():
        if snapshot_i.header is None:
            continue
        vector = snapshot_i.header.cd_vector
        for j, snapshot_j in snapshots.items():
            if i == j:
                continue
            dependency = vector[j]
            if dependency == NO_BATCH:
                continue
            if snapshot_j.lce >= dependency:
                continue
            required[j] = max(required.get(j, NO_BATCH), dependency)
    return required


def assemble_result(
    snapshots: Mapping[PartitionId, PartitionSnapshot],
    requested_keys: Sequence[Key],
) -> Tuple[Dict[Key, Optional[Value]], Dict[Key, BatchNumber]]:
    """Merge per-partition snapshots into the final key → value mapping."""
    values: Dict[Key, Optional[Value]] = {}
    versions: Dict[Key, BatchNumber] = {}
    by_key: Dict[Key, PartitionSnapshot] = {}
    for snapshot in snapshots.values():
        for key in snapshot.keys:
            by_key[key] = snapshot
    for key in requested_keys:
        snapshot = by_key.get(key)
        if snapshot is None:
            raise ReadOnlyProtocolError(f"no partition returned a snapshot for key {key!r}")
        values[key] = snapshot.values.get(key)
        versions[key] = snapshot.versions.get(key, NO_BATCH)
    return values, versions
