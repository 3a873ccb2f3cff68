"""Application-level protocol messages.

Three groups of messages:

* **client ↔ cluster** — reads, commit requests and the snapshot read-only
  protocol (round 1 and round 2), plus the Augustus-baseline lock-read
  messages;
* **cluster ↔ cluster (2PC over BFT)** — coordinator-prepare, the
  participants' prepared votes and the final decision, each carrying the
  certificates produced by the sending cluster's consensus;
* replies, all correlated to their requests via ``request_id``.

A message's shape is its annotations: ``well_formed()`` is derived from
them (:mod:`repro.common.shapes`), down to the transactions, records and
headers a message carries, so a field declared here is a field checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.ids import NO_BATCH, BatchNumber, PartitionId
from repro.common.types import Key, TxnStatus, Value
from repro.crypto.merkle import MerkleProof
from repro.core.batch import CertifiedHeader, CommitRecord, PreparedVote
from repro.core.transaction import TxnPayload
from repro.simnet.messages import Message, ReplyMessage, RequestMessage


# ---------------------------------------------------------------------------
# Client reads (used while building read-write transactions)
# ---------------------------------------------------------------------------


@dataclass
class ReadRequest(RequestMessage):
    """Read current committed values of ``keys`` from one partition."""

    keys: Tuple[Key, ...] = ()


@dataclass
class ReadReply(ReplyMessage):
    """Values and versions for a :class:`ReadRequest`."""

    values: Dict[Key, Value] = field(default_factory=dict)
    versions: Dict[Key, BatchNumber] = field(default_factory=dict)
    partition: PartitionId = 0


# ---------------------------------------------------------------------------
# Commit path (read-write transactions)
# ---------------------------------------------------------------------------


@dataclass
class CommitRequest(RequestMessage):
    """Client → coordinator cluster: please commit this transaction."""

    txn: Optional[TxnPayload] = None


def outcome(committed: bool, batch: BatchNumber) -> Dict[str, object]:
    """Status, commit batch and abort reason of a transaction ``batch`` decided:
    the fields :class:`CommitReply` and :class:`ReplicaCommitReply` report."""
    if committed:
        return {"status": TxnStatus.COMMITTED, "commit_batch": batch, "abort_reason": ""}
    reason = "a participant voted to abort"
    return {"status": TxnStatus.ABORTED, "commit_batch": NO_BATCH, "abort_reason": reason}


@dataclass
class CommitReply(ReplyMessage):
    """Coordinator cluster → client: the transaction's fate."""

    txn_id: str = ""
    status: TxnStatus = TxnStatus.ABORTED
    commit_batch: BatchNumber = NO_BATCH
    abort_reason: str = ""


@dataclass
class ReplicaCommitReply(Message):
    """Each coordinator replica → client: replicated commit evidence.

    The leader's :class:`CommitReply` is a single point of failure — a
    leader that crashes after its cluster certifies the outcome but before
    answering strands the client until timeout/failover.  Every replica
    therefore reports the outcome it just applied from a delivered batch;
    the client accepts once ``f + 1`` replicas of the coordinator cluster
    agree (at most ``f`` are faulty, so at least one of them is honest).
    Followers do not know the client's request id, so this is a plain
    :class:`Message` correlated by ``txn_id``; the client synthesizes a
    request-correlated :class:`CommitReply` once the quorum is reached.
    """

    txn_id: str = ""
    partition: PartitionId = 0
    status: TxnStatus = TxnStatus.ABORTED
    commit_batch: BatchNumber = NO_BATCH
    abort_reason: str = ""


# ---------------------------------------------------------------------------
# 2PC over BFT (leader ↔ leader)
# ---------------------------------------------------------------------------


@dataclass
class CoordinatorPrepare(Message):
    """Coordinator cluster → participant cluster: prepare this transaction.

    Carries the certified header of the coordinator's batch containing the
    prepare record so the participant can verify the request really went
    through the coordinator cluster's consensus.
    """

    txn: Optional[TxnPayload] = None
    coordinator: PartitionId = 0
    prepare_batch: BatchNumber = NO_BATCH
    header: Optional[CertifiedHeader] = None


@dataclass
class ParticipantPrepared(Message):
    """Participant cluster → coordinator cluster: our vote for the transaction."""

    vote: Optional[PreparedVote] = None
    header: Optional[CertifiedHeader] = None


@dataclass
class DecisionMessage(Message):
    """Coordinator cluster → participant clusters: the final commit/abort record."""

    record: Optional[CommitRecord] = None
    commit_batch: BatchNumber = NO_BATCH
    header: Optional[CertifiedHeader] = None


@dataclass
class DecisionQuery(Message):
    """Participant leader → coordinator-cluster replicas: how did ``txn_id`` end?

    Sent while a prepared transaction stays undecided past the 2PC retry
    timeout — typically because the coordinator's leader crashed between
    certifying the decision and broadcasting it.  Decisions are replicated
    log entries (and ride in checkpoint images), so *any* coordinator-cluster
    replica that delivered the commit record can answer; the participant does
    not depend on the (possibly dead) coordinator leader.
    """

    txn_id: str = ""
    partition: PartitionId = 0


@dataclass
class DecisionReply(Message):
    """Coordinator-cluster replica → participant leader: the certified record.

    The receiver verifies the record exactly as it would verify a committed
    segment entry (positive decisions carry certified headers from every
    accessed cluster), so a single — possibly byzantine — responder suffices.
    """

    record: Optional[CommitRecord] = None
    commit_batch: BatchNumber = NO_BATCH


@dataclass
class LeaderComplaint(Message):
    """Client → cluster followers: the leader is not answering me.

    Fire-and-forget nudge a client sends to every cluster member after its
    commit request timed out.  Followers treat it as progress-monitor
    evidence (the classic PBFT "client broadcasts after leader silence"
    trigger), so a leader that crashed while idle — leaving no in-flight
    consensus instance to betray it — is still suspected and replaced.

    ``txn`` is the complaint's evidence: the transaction whose commit
    request went unanswered.  Followers refuse to act on a complaint
    without it, and corroborate the rest by forwarding the transaction to
    the leader as a :class:`ComplaintProbe` — the complaint only sustains
    suspicion while that forwarded request goes unanswered, so a lying
    client cannot vote out a healthy leader.
    """

    partition: PartitionId = 0
    txn: Optional[TxnPayload] = None


@dataclass
class ComplaintProbe(Message):
    """Follower → own leader: a client claims this request went unanswered.

    The classic PBFT relay: replicas receiving a client's complaint forward
    the allegedly-ignored request to the primary rather than taking the
    client's word for it.  A live leader answers immediately with a
    :class:`ComplaintProbeAck` (and the client's own retry machinery
    re-delivers the request proper); a dead one stays silent, leaving the
    complaint standing as progress-monitor evidence.
    """

    partition: PartitionId = 0
    txn: Optional[TxnPayload] = None


@dataclass
class ComplaintProbeAck(Message):
    """Leader → probing follower: I am alive and saw the forwarded request."""

    partition: PartitionId = 0
    txn_id: str = ""


# ---------------------------------------------------------------------------
# Snapshot read-only transactions (TransEdge protocol, Section 4)
# ---------------------------------------------------------------------------


@dataclass
class ReadOnlyRequest(RequestMessage):
    """Round 1: read ``keys`` from a single node of one partition."""

    keys: Tuple[Key, ...] = ()


@dataclass
class ReadOnlyReply(ReplyMessage):
    """Round-1 response: values, Merkle proofs and the certified header."""

    partition: PartitionId = 0
    values: Dict[Key, Value] = field(default_factory=dict)
    versions: Dict[Key, BatchNumber] = field(default_factory=dict)
    proofs: Dict[Key, MerkleProof] = field(default_factory=dict)
    header: Optional[CertifiedHeader] = None


@dataclass
class SnapshotRequest(RequestMessage):
    """Round 2: read ``keys`` from the snapshot satisfying a dependency.

    ``required_prepare_batch`` is the CD-vector entry that was not satisfied
    in round 1: the responder must answer from the earliest batch whose LCE
    is at least this value (i.e. the first snapshot in which that prepare
    group has committed).
    """

    keys: Tuple[Key, ...] = ()
    required_prepare_batch: BatchNumber = NO_BATCH


@dataclass
class SnapshotReply(ReplyMessage):
    """Round-2 response, same shape as round 1 but for the older/newer snapshot."""

    partition: PartitionId = 0
    values: Dict[Key, Value] = field(default_factory=dict)
    versions: Dict[Key, BatchNumber] = field(default_factory=dict)
    proofs: Dict[Key, MerkleProof] = field(default_factory=dict)
    header: Optional[CertifiedHeader] = None


# ---------------------------------------------------------------------------
# Augustus baseline (quorum reads with shared locks)
# ---------------------------------------------------------------------------


@dataclass
class LockReadRequest(RequestMessage):
    """Augustus: acquire shared locks on ``keys`` and return their values."""

    txn_id: str = ""
    keys: Tuple[Key, ...] = ()


@dataclass
class LockReadReply(ReplyMessage):
    """Augustus: values plus whether the shared locks were granted."""

    partition: PartitionId = 0
    granted: bool = False
    values: Dict[Key, Value] = field(default_factory=dict)
    versions: Dict[Key, BatchNumber] = field(default_factory=dict)


@dataclass
class LockReleaseMessage(Message):
    """Augustus: release all shared locks held by ``txn_id`` (fire and forget)."""

    txn_id: str = ""
