"""Batches and their segments — the unit written to the SMR log.

A TransEdge batch (Figure 2 of the paper) has four segments:

* ``local`` — local transactions, committed as soon as the batch is written;
* ``prepared`` — distributed transactions 2PC-prepared as of this batch;
* ``committed`` — commit/abort records of distributed transactions whose
  prepare group became ready (all votes collected), added per the ordering
  constraint of Definition 4.1;
* the **read-only segment**: the Conflict-Dependency vector, the Last
  Committed Epoch and the Merkle root of the partition state after this
  batch, plus a leader timestamp for the freshness mechanism of §4.4.2.

The batch digest (header payload + content digest) is what intra-cluster
consensus agrees on, so the certificate produced by the BFT layer
simultaneously certifies the read-only segment — this is how a single node
can later prove the authenticity of its read-only responses.

Batches, records and headers are outside input (any member may propose,
any replica may answer a read); their shapes are their annotations
(:mod:`repro.common.shapes`), and the memoised ones keep the verdict, so
the receivers of one shared object check it once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

from repro.bft.quorum import CommitCertificate
from repro.common.ids import NO_BATCH, BatchNumber, PartitionId
from repro.common.shapes import conforms
from repro.common.types import Key, MemoisedValue, Value
from repro.crypto.hashing import Digest, Encoded, digest_of
from repro.crypto.signatures import KeyRegistry, Signature
from repro.core.cdvector import CDVector, combine_all
from repro.core.transaction import TxnPayload
from repro.storage.partitioner import HashPartitioner


@dataclass(frozen=True)
class PreparedRecord:
    """A distributed transaction prepared in this batch at this partition."""

    txn: TxnPayload
    coordinator: PartitionId

    def payload(self) -> dict:
        return {"txn": self.txn.payload(), "coordinator": self.coordinator}

    def spliced(self) -> dict:
        """:meth:`payload` around the transaction's kept encoding: same bytes."""
        return {"txn": self.txn.encoded, "coordinator": self.coordinator}


@dataclass(frozen=True)
class PreparedVote:
    """One partition's 2PC vote for a distributed transaction.

    A positive vote carries the batch number in which the transaction
    prepared at the voting partition, that batch's CD vector and the commit
    certificate of that batch — the pieces a remote cluster needs to verify
    the vote and to derive its own dependencies (Section 4.3.3c).

    A negative vote has no certified header to prove its provenance, so the
    voting partition's leader *signs* it (``signature`` over
    :meth:`abort_signing_payload`): validators of an abort commit record
    check the signature against the voting cluster's membership, which stops
    a byzantine coordinator from forging a "participant voted no" and
    unilaterally aborting a fully-prepared transaction.  Like a positive
    vote's header, the signature proves itself and stays out of
    :meth:`payload` (and therefore out of batch and image digests).
    """

    txn_id: str
    partition: PartitionId
    vote: bool
    prepare_batch: BatchNumber = NO_BATCH
    cd_vector: Optional[CDVector] = None
    header: Optional["CertifiedHeader"] = None
    signature: Optional["Signature"] = None

    def payload(self) -> dict:
        return {
            "txn_id": self.txn_id,
            "partition": self.partition,
            "vote": self.vote,
            "prepare_batch": int(self.prepare_batch),
            "cd_vector": self.cd_vector.payload() if self.cd_vector else None,
        }

    def abort_signing_payload(self) -> list:
        """Canonical payload a negative vote's signature covers."""
        return ["abort-vote", self.txn_id, int(self.partition)]


@dataclass(frozen=True)
class CommitRecord(MemoisedValue):
    """The decision for a distributed transaction, with the collected votes.

    One record object is embedded in the batch of every cluster the
    transaction touched and validated by every replica of each, so the two
    things they all derive from it are kept on it (and dropped by every copy,
    see :class:`MemoisedValue`): its canonical encoding and the entry-wise
    maximum of the CD vectors its positive votes report.
    """

    txn: TxnPayload
    coordinator: PartitionId
    decision: bool
    prepare_batch: BatchNumber
    votes: Mapping[PartitionId, PreparedVote] = field(default_factory=dict)

    @property
    def committed(self) -> bool:
        return self.decision

    def payload(self) -> dict:
        return {
            "txn": self.txn.payload(),
            "coordinator": self.coordinator,
            "decision": self.decision,
            "prepare_batch": int(self.prepare_batch),
            "votes": {str(p): vote.payload() for p, vote in sorted(self.votes.items())},
        }

    @cached_property
    def encoded(self) -> Encoded:
        """:meth:`payload`, canonicalised once around the transaction's own fragment."""
        return Encoded.of({**self.payload(), "txn": self.txn.encoded})

    def reported_vectors(self) -> Tuple[CDVector, ...]:
        """CD vectors reported by positive votes (input to Algorithm 1)."""
        return tuple(
            vote.cd_vector
            for _, vote in sorted(self.votes.items())
            if vote.vote and vote.cd_vector is not None
        )

    @cached_property
    def reported_max(self) -> Optional[CDVector]:
        """Entry-wise maximum of :meth:`reported_vectors`, ``None`` when there are none.

        Algorithm 1 folds every reported vector into the batch's CD vector;
        the maximum is associative and commutative, so folding this one
        vector gives the same result.
        """
        vectors = self.reported_vectors()
        return combine_all(vectors[0], vectors[1:]) if vectors else None


@dataclass(frozen=True)
class ReadOnlySegment:
    """Read-only metadata of a batch: CD vector, LCE, Merkle root, timestamp."""

    cd_vector: CDVector
    lce: BatchNumber
    merkle_root: Digest
    timestamp_ms: float

    def payload(self) -> dict:
        return {
            "cd_vector": self.cd_vector.payload(),
            "lce": int(self.lce),
            "merkle_root": self.merkle_root,
            "timestamp_ms": float(self.timestamp_ms),
        }


def _header_digest(
    partition: PartitionId, number: BatchNumber, read_only: ReadOnlySegment, content: Digest
) -> Digest:
    """The digest consensus certifies: a batch header bound to its content digest.

    A :class:`Batch` and the :class:`CertifiedHeader` cut from it digest alike,
    which is what lets a header's certificate be checked without the batch.
    """
    header = {"partition": partition, "number": int(number), "read_only": read_only.payload()}
    return digest_of({"header": header, "content": content})


@dataclass(frozen=True)
class Batch(MemoisedValue):
    """One entry of a partition's SMR log."""

    partition: PartitionId
    number: BatchNumber
    local_txns: Tuple[TxnPayload, ...] = ()
    prepared: Tuple[PreparedRecord, ...] = ()
    committed: Tuple[CommitRecord, ...] = ()
    read_only: ReadOnlySegment = None  # type: ignore[assignment]

    # -- digests --------------------------------------------------------------
    #
    # Digests are cached: batches are immutable and the digest of a large
    # batch is recomputed many times (consensus, validation, delivery).
    # Distributed transactions and commit records recur in other batches and
    # bring their encoding with them; a local transaction appears only here.

    @cached_property
    def _content_digest(self) -> Digest:
        return digest_of(
            {
                "local": [txn.payload() for txn in self.local_txns],
                "prepared": [record.spliced() for record in self.prepared],
                "committed": [record.encoded for record in self.committed],
            }
        )

    def content_digest(self) -> Digest:
        """Digest binding all transactions carried by this batch."""
        return self._content_digest

    @cached_property
    def _digest(self) -> Digest:
        return _header_digest(self.partition, self.number, self.read_only, self.content_digest())

    def digest(self) -> Digest:
        """The digest agreed on by intra-cluster consensus."""
        return self._digest

    # -- derived views ----------------------------------------------------------

    def size(self) -> int:
        """Number of transactions carried by the batch (all segments)."""
        return len(self.local_txns) + len(self.prepared) + len(self.committed)

    @cached_property
    def _visible_writes(self) -> Dict[int, Mapping[Key, Value]]:
        return {}

    def visible_writes(self, partitioner: HashPartitioner) -> Mapping[Key, Value]:
        """Write-sets made visible by this batch on this partition (read-only).

        Local transactions become visible in their own batch; distributed
        transactions become visible in the batch carrying their (positive)
        commit record.  Prepared-but-undecided writes are *not* visible: the
        Merkle root a batch certifies then covers exactly the values a
        read-only client can be served at that batch, so a proof against the
        root never vouches for a write that may still abort.  Every member
        is sent the same proposal object: derived once per cluster.
        """
        memo, size = self._visible_writes, partitioner.num_partitions
        writes = memo.get(size)
        if writes is None:
            updates: Dict[Key, Value] = {}
            for txn in self.local_txns:
                updates.update(txn.writes_in(self.partition, partitioner))
            for record in self.committed:
                if record.decision:
                    updates.update(record.txn.writes_in(self.partition, partitioner))
            writes = memo[size] = MappingProxyType(updates)
        return writes

    def certified_header(self, certificate: CommitCertificate) -> "CertifiedHeader":
        """Bundle the read-only segment with its consensus certificate."""
        return CertifiedHeader(
            partition=self.partition,
            number=self.number,
            read_only=self.read_only,
            content_digest=self.content_digest(),
            certificate=certificate,
        )


@dataclass(frozen=True)
class CertifiedHeader(MemoisedValue):
    """A batch header plus the consensus certificate proving agreement on it.

    This is what leaders attach to read-only responses and to 2PC messages:
    the receiving side recomputes the batch digest from the header fields and
    the content digest, then checks the certificate's signatures cover it.
    """

    partition: PartitionId
    number: BatchNumber
    read_only: ReadOnlySegment
    content_digest: Digest
    certificate: CommitCertificate

    @property
    def cd_vector(self) -> CDVector:
        return self.read_only.cd_vector

    @property
    def lce(self) -> BatchNumber:
        return self.read_only.lce

    @property
    def merkle_root(self) -> Digest:
        return self.read_only.merkle_root

    @property
    def timestamp_ms(self) -> float:
        return self.read_only.timestamp_ms

    @cached_property
    def _digest(self) -> Digest:
        return _header_digest(self.partition, self.number, self.read_only, self.content_digest)

    def digest(self) -> Digest:
        # Cached: headers are immutable and re-verified many times (2PC vote
        # validation, read-only responses, state transfer).
        return self._digest

    def verify(
        self,
        registry: KeyRegistry,
        cluster_members,
        required: int,
    ) -> bool:
        """Check the header is well formed, the certificate matches it and
        carries enough signatures.  Total: a malformed header is ``False``."""
        if not conforms(self, CertifiedHeader):
            return False
        if self.certificate.digest != self.digest():
            return False
        if self.certificate.partition != self.partition:
            return False
        return self.certificate.verify(registry, cluster_members, required)
