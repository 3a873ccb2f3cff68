"""TransEdge core: batches, CD vectors, OCC, 2PC over BFT, read-only protocol."""

from repro.core.batch import (
    Batch,
    CertifiedHeader,
    CommitRecord,
    PreparedRecord,
    PreparedVote,
    ReadOnlySegment,
)
from repro.core.cdvector import CDVector, combine_all
from repro.core.client import ClientStats, TransEdgeClient
from repro.core.leader import LeaderRole
from repro.core.messages import (
    CommitReply,
    CommitRequest,
    CoordinatorPrepare,
    DecisionMessage,
    LockReadReply,
    LockReadRequest,
    LockReleaseMessage,
    ParticipantPrepared,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadReply,
    ReadRequest,
    SnapshotReply,
    SnapshotRequest,
)
from repro.core.occ import (
    ConflictChecker,
    ConflictReport,
    Footprint,
    KeyConflictIndex,
    stale_read_check,
)
from repro.core.prepared import PreparedBatches, PrepareGroup
from repro.core.readonly import (
    PartitionSnapshot,
    assemble_result,
    find_unsatisfied_dependencies,
    verify_snapshot,
)
from repro.core.replica import PartitionReplica, ReplicaCounters
from repro.core.system import SystemCounters, TransEdgeSystem, generate_initial_data
from repro.core.topology import ClusterTopology
from repro.core.transaction import TxnPayload

__all__ = [
    "Batch",
    "CDVector",
    "CertifiedHeader",
    "ClientStats",
    "ClusterTopology",
    "CommitRecord",
    "CommitReply",
    "CommitRequest",
    "ConflictChecker",
    "ConflictReport",
    "CoordinatorPrepare",
    "DecisionMessage",
    "Footprint",
    "KeyConflictIndex",
    "LeaderRole",
    "LockReadReply",
    "LockReadRequest",
    "LockReleaseMessage",
    "ParticipantPrepared",
    "PartitionReplica",
    "PartitionSnapshot",
    "PrepareGroup",
    "PreparedBatches",
    "PreparedRecord",
    "PreparedVote",
    "ReadOnlyReply",
    "ReadOnlyRequest",
    "ReadOnlySegment",
    "ReadReply",
    "ReadRequest",
    "ReplicaCounters",
    "SnapshotReply",
    "SnapshotRequest",
    "SystemCounters",
    "TransEdgeClient",
    "TransEdgeSystem",
    "TxnPayload",
    "assemble_result",
    "combine_all",
    "find_unsatisfied_dependencies",
    "generate_initial_data",
    "stale_read_check",
    "verify_snapshot",
]
