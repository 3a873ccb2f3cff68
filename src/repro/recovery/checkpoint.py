"""Quorum-certified checkpoints and the garbage collection they unlock.

Every ``CheckpointConfig.interval_batches`` delivered batches a replica
captures a :class:`~repro.recovery.snapshot.SnapshotImage`, signs its digest
and broadcasts a :class:`~repro.bft.messages.CheckpointVote` to its cluster.
When ``2f + 1`` members vote for the same ``(seq, digest)`` the checkpoint is
*stable*: the collected signatures form a :class:`CheckpointCertificate`
(transferable proof that the image is the agreed partition state at ``seq``),
and the replica garbage-collects everything the checkpoint covers —

* SMR-log entries at or below ``seq`` (:meth:`ReplicatedLog.truncate_prefix`);
* store versions older than the retention window
  (:meth:`MultiVersionStore.prune`);
* certified headers and decided consensus instances below the window.

A replica that sees a quorum certify a checkpoint it never reached knows it
is lagging and asks :class:`~repro.recovery.transfer.RecoveryCoordinator` to
fetch the state instead of waiting for consensus traffic it already missed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.bft.messages import CheckpointVote
from repro.bft.quorum import VoteTracker, checkpoint_payload
from repro.common.ids import NO_BATCH, BatchNumber, PartitionId, ReplicaId
from repro.crypto.hashing import Digest
from repro.crypto.signatures import KeyRegistry, Signature, signature_well_formed
from repro.recovery.snapshot import SnapshotImage, SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.core.replica import PartitionReplica


#: How far behind the certified checkpoint a replica must be before vote
#: observation triggers state transfer.  Leaders pipeline one batch at a
#: time, so a healthy replica momentarily trails by a batch or two when
#: checkpoint votes overtake the final commit messages; only a larger gap
#: means the consensus traffic was truly missed.  A genuinely stuck replica
#: still self-heals: checkpoints keep advancing, so the gap eventually
#: exceeds any fixed margin.
LAG_TRIGGER_MARGIN = 2


@dataclass(frozen=True)
class CheckpointCertificate:
    """Proof that a cluster agreed its state at ``seq`` digests to ``digest``."""

    partition: PartitionId
    seq: BatchNumber
    digest: Digest
    signatures: Tuple[Signature, ...]

    def payload(self) -> object:
        return checkpoint_payload(self.seq, self.digest)

    def well_formed(self) -> bool:
        """Do the fields have the declared shape?  (Outside input, checked before :meth:`verify`.)"""
        return (
            isinstance(self.partition, int)
            and isinstance(self.seq, int)
            and isinstance(self.digest, bytes)
            and isinstance(self.signatures, tuple)
            and all(signature_well_formed(signature) for signature in self.signatures)
        )

    def verify(
        self,
        registry: KeyRegistry,
        cluster_members: Iterable[ReplicaId],
        required: int,
    ) -> bool:
        """Check the certificate carries ``required`` valid member signatures."""
        allowed = {str(member) for member in cluster_members}
        return registry.verify_quorum(
            self.payload(), self.signatures, required=required, allowed_signers=allowed
        )


class CheckpointManager:
    """One replica's view of checkpoint agreement and log/store GC."""

    def __init__(self, replica: "PartitionReplica") -> None:
        self._replica = replica
        self.config = replica.config.checkpoint
        self.snapshots = SnapshotStore()
        self._votes: Dict[Tuple[BatchNumber, Digest], VoteTracker] = {}
        self.stable_seq: BatchNumber = NO_BATCH
        self.stable_certificate: Optional[CheckpointCertificate] = None

    # -- queries ------------------------------------------------------------

    @property
    def stable_image(self) -> Optional[SnapshotImage]:
        """The image of the latest stable checkpoint (None before the first)."""
        if self.stable_seq == NO_BATCH:
            return None
        return self.snapshots.get(self.stable_seq)

    @property
    def _quorum(self) -> int:
        return self._replica.engine.quorum

    # -- bootstrap / adoption ------------------------------------------------

    def bootstrap(self, genesis: SnapshotImage) -> None:
        """Hold the partition's genesis image of the preloaded data.

        The image is never certified, is shared by all cluster members, and
        is carried across a crash (the dataset is durable).
        """
        self.snapshots.set_genesis(genesis)

    def adopt(self, image: SnapshotImage, certificate: CheckpointCertificate) -> None:
        """Install a verified checkpoint received through state transfer."""
        self.snapshots.add(image)
        self.stable_seq = image.seq
        self.stable_certificate = certificate

    # -- taking checkpoints ---------------------------------------------------

    def on_batch_delivered(self, seq: BatchNumber) -> None:
        """Capture and vote for a checkpoint when ``seq`` hits the interval."""
        if not self.config.enabled:
            return
        if seq <= 0 or seq % self.config.interval_batches != 0:
            return
        replica = self._replica
        image = SnapshotImage.capture(replica, seq)
        self.snapshots.add(image)
        replica.counters.checkpoints_taken += 1
        vote = CheckpointVote(seq=seq, digest=image.digest())
        vote.signature = replica.signer.sign(vote.signing_payload())
        peers = [m for m in replica.cluster_members if m != replica.node_id]
        replica.broadcast(peers, vote)
        self._record_vote(seq, image.digest(), str(replica.node_id), vote.signature)

    def on_vote(self, message: CheckpointVote, src: ReplicaId) -> None:
        if not self.config.enabled:
            return
        if src not in self._replica.cluster_members or message.seq <= self.stable_seq:
            return
        if not message.verify_sender(src, self._replica.verifier):
            return
        self._record_vote(message.seq, message.digest, str(src), message.signature)

    def _record_vote(
        self, seq: BatchNumber, digest: Digest, sender: str, signature: Signature
    ) -> None:
        tracker = self._votes.setdefault((seq, digest), VoteTracker())
        tracker.add(sender, signature)
        if seq <= self.stable_seq or not tracker.reached(self._quorum):
            return
        certificate = CheckpointCertificate(
            partition=self._replica.partition,
            seq=seq,
            digest=digest,
            signatures=tracker.signatures(),
        )
        image = self.snapshots.get(seq)
        if image is not None and image.digest() == digest:
            self._stabilise(image, certificate)
        elif seq > self._replica.log.last_seq + LAG_TRIGGER_MARGIN:
            # The cluster certified a state this replica never reached: it is
            # lagging (e.g. it missed consensus traffic around a restart).
            # Fetch the checkpoint from peers instead of waiting forever.
            self._replica.recovery.begin()

    # -- stabilisation and GC --------------------------------------------------

    def _stabilise(
        self, image: SnapshotImage, certificate: CheckpointCertificate
    ) -> None:
        replica = self._replica
        self.stable_seq = image.seq
        self.stable_certificate = certificate
        replica.counters.checkpoints_stable += 1
        replica.obs_event("checkpoint-stable", "info", seq=image.seq)
        self.snapshots.retain_only(image.seq)
        self._votes = {
            (seq, digest): tracker
            for (seq, digest), tracker in self._votes.items()
            if seq > image.seq
        }

        # Everything the stable checkpoint covers can go: the log prefix, the
        # version chains, headers and archived Merkle trees below the
        # retention window, and decided consensus instances.  Store, header
        # list and tree archive are pruned to the same floor so every batch a
        # round-2 snapshot request can still name remains fully answerable.
        truncated = replica.log.truncate_prefix(image.seq + 1)
        replica.counters.log_entries_truncated += truncated
        retain_from = image.seq - self.config.retention_batches
        replica.counters.versions_pruned += replica.store.prune(retain_from)
        replica.prune_headers_below(retain_from)
        replica.prune_decisions_below(retain_from)
        replica.merkle.prune_archive(retain_from)
        # Merge archive deltas for batches no round-2 request can name:
        # only the earliest header of each LCE run is reachable through
        # ``_earliest_header_with_lce``, so the other batches' exact
        # trees are dead weight the compaction folds together.
        replica.counters.archive_records_compacted += (
            replica.merkle.compact_archive(replica.requestable_header_batches())
        )
        replica.engine.compact_below(image.seq + 1)
