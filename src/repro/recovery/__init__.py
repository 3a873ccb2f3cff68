"""Checkpointing, log compaction and crash recovery.

Long-running TransEdge deployments cannot keep the full SMR log and every
version of every key in memory, and a crashed replica must be able to rejoin
without replaying history from the beginning.  This package adds the classic
BFT answer to both problems, layered on the existing building blocks:

* :class:`~repro.recovery.snapshot.SnapshotImage` /
  :class:`~repro.recovery.snapshot.SnapshotStore` — restorable images of a
  partition replica's state (store contents with versions, in-flight prepared
  transactions, the certified header at the checkpoint batch);
* :class:`~repro.recovery.checkpoint.CheckpointManager` — periodic
  PBFT-style checkpoint agreement: replicas exchange signed
  :class:`~repro.bft.messages.CheckpointVote` messages and a ``2f + 1``
  quorum of matching digests makes a checkpoint *stable*, which triggers
  garbage collection (log truncation, version pruning, engine compaction);
* :class:`~repro.recovery.transfer.RecoveryCoordinator` — the state-transfer
  protocol by which a restarted or lagging replica fetches the latest stable
  checkpoint plus the log suffix from its peers, verifies both (checkpoint
  certificate, per-entry commit certificates, Merkle roots) and rejoins —
  *in the cluster's current view*: replies advertise the responder's
  ``(view, view-change quorum certificate)`` and the rejoiner adopts it
  after verification, so it follows the live leader immediately.

Around this package, the recovery overhaul (PR 3) adds automatic
failure handling in the core layer: a per-replica progress monitor
(:mod:`repro.core.progress`, one pure step function and its shell) votes
out a dead leader without operator action, 2PC decisions are durable
replicated state served to stranded participants on ``DecisionQuery``, and
a newly elected leader resumes its predecessor's unfinished vote collections
from the replicated prepare groups.

Crash faults themselves are injected at the transport level through
:meth:`repro.simnet.faults.FaultInjector.crash` and orchestrated by
:meth:`repro.core.system.TransEdgeSystem.crash_replica` /
:meth:`~repro.core.system.TransEdgeSystem.restart_replica`.
"""

from repro.recovery.checkpoint import CheckpointCertificate, CheckpointManager
from repro.recovery.messages import StateTransferReply, StateTransferRequest
from repro.recovery.snapshot import SnapshotImage, SnapshotStore
from repro.recovery.transfer import RecoveryCoordinator

__all__ = [
    "CheckpointCertificate",
    "CheckpointManager",
    "RecoveryCoordinator",
    "SnapshotImage",
    "SnapshotStore",
    "StateTransferReply",
    "StateTransferRequest",
]
