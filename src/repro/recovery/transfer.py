"""State transfer: how a restarted or lagging replica rejoins its cluster.

The recovering replica broadcasts a
:class:`~repro.recovery.messages.StateTransferRequest` to its peers and
installs the first verifiable reply:

1. if the reply carries a checkpoint image newer than anything the replica
   holds, the image digest is checked against the checkpoint certificate
   (``f + 1`` member signatures, like any cross-trust-domain proof in this
   codebase) and the certified header is checked against the restored Merkle
   root, then the image replaces the replica's state wholesale;
2. the log-suffix entries are replayed in order, each one's commit
   certificate verified against the batch digest and the Merkle root checked
   against the batch's certified read-only segment after application;
3. the consensus engine is fast-forwarded past the recovered prefix so the
   replica resumes voting on live instances.

Any verification failure discards the whole reply (and resets the replica to
empty if a partial install had begun), leaving recovery in progress for the
next peer's reply — so one honest responder is enough and byzantine
responders cannot poison the restored state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bft.log import LogEntry
from repro.common.errors import TransEdgeError
from repro.common.ids import NO_BATCH, BatchNumber
from repro.core.batch import Batch
from repro.recovery.messages import StateTransferReply, StateTransferRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.core.replica import PartitionReplica


class StateTransferError(TransEdgeError):
    """A state-transfer reply failed verification and was discarded."""


class RecoveryCoordinator:
    """Drives state transfer for one replica."""

    #: Simulated milliseconds between request re-broadcasts while a recovery
    #: session has not completed (replies lost or all rejected).
    RETRY_INTERVAL_MS = 25.0

    def __init__(self, replica: "PartitionReplica") -> None:
        self._replica = replica
        self.in_progress = False

    def begin(self) -> None:
        """Ask every cluster peer for the state this replica is missing."""
        if self.in_progress:
            return
        self.in_progress = True
        self._replica.counters.recoveries_started += 1
        self._broadcast_request()

    def _broadcast_request(self) -> None:
        replica = self._replica
        # A re-crashed or re-reset replica owns a fresh coordinator; a stale
        # timer firing on the old one must not keep requesting on its behalf.
        if not self.in_progress or replica.recovery is not self or replica.crashed:
            return
        request = StateTransferRequest(
            partition=replica.partition, have_seq=replica.log.last_seq
        )
        peers = [m for m in replica.cluster_members if m != replica.node_id]
        replica.broadcast(peers, request)
        replica.schedule(self.RETRY_INTERVAL_MS, self._broadcast_request)

    def on_reply(self, message: StateTransferReply, src) -> None:
        replica = self._replica
        if message.partition != replica.partition:
            return
        held_before = replica.log.last_seq
        if not self.in_progress and not self._extends(message.highest_seq(), held_before):
            # Recovery already completed, but a late reply that verifiably
            # extends our log is still worth applying: the completing reply
            # may have come from a peer that was itself behind.
            return
        try:
            self._install(message)
        except StateTransferError:
            replica.counters.state_transfers_rejected += 1
            return
        tip = replica.log.last_seq
        if self.in_progress and self._completes(held_before, tip, message.responder_tip):
            self.in_progress = False
            replica.counters.recoveries_completed += 1
            replica.obs_event("recovery-complete", "info", log_tip=tip)
        if tip > held_before:
            # An install that advanced the log may have fast-forwarded the
            # engine past a recovering *leader's* in-flight proposal; let it
            # re-arm sealing.  This runs for late extending replies too — a
            # peer that was itself behind can complete the session early, and
            # only a later reply brings the superseding decision.
            replica.leader_role.on_recovery_complete()

    @staticmethod
    def _completes(
        held_before: BatchNumber, tip: BatchNumber, responder_tip: BatchNumber
    ) -> bool:
        """Did an install that moved the log tip from ``held_before`` to ``tip``
        finish the session, given the responder's certified ``responder_tip``?

        A reply from a peer that is itself *behind* the recoverer installs
        nothing, and must not count as completion — otherwise a lagging
        replica "recovers" to its own stale state the moment any stale peer
        answers.  Completion requires the install to have extended the log up
        to the responder's advertised certified tip, or — when nothing new
        was installed — the recoverer's tip to already match the responder's
        (an up-to-date peer confirming there is nothing to fetch).  Anything
        else leaves the session in progress for the retry broadcast.
        """
        if tip < responder_tip:
            return False  # the responder certified more than it could send us
        return tip > held_before or tip == responder_tip

    @staticmethod
    def _extends(highest: BatchNumber, tip: BatchNumber) -> bool:
        """Does a reply carrying state up to ``highest`` hold anything above ``tip``?"""
        return highest > tip

    # -- installation -------------------------------------------------------

    def _install(self, reply: StateTransferReply) -> None:
        replica = self._replica
        image = reply.image
        self._verify_view(reply)
        mutated = False
        # A freshly reset replica holds nothing at all — even the genesis
        # image (seq == last_seq == NO_BATCH) is news to it.
        needs_base = replica.log.next_seq == 0 and len(replica.store) == 0
        try:
            if image is not None and (image.seq > replica.log.last_seq or needs_base):
                self._verify_image(reply)
                replica.reset_for_recovery(preserve_recovery=True)
                mutated = True
                replica.install_snapshot(image, reply.certificate)
            for entry in reply.entries:
                if entry.seq < replica.log.next_seq:
                    continue  # already held (or covered by the image)
                if entry.seq > replica.log.next_seq:
                    break  # gap: the remainder of this reply is unusable
                self._verify_entry(entry)
                mutated = True
                replica.apply_recovered_entry(entry)
        except StateTransferError:
            if mutated:
                # A partially applied reply would leave the replica in a state
                # nobody can certify; wipe it and wait for an honest peer.
                replica.reset_for_recovery(preserve_recovery=True)
            raise
        if replica.log.last_seq < 0:
            raise StateTransferError("reply contained no usable state")
        replica.engine.install_checkpoint(replica.log.last_seq)
        if reply.view > replica.engine.view:
            # Verified in _verify_view: follow the cluster's live leader now,
            # so the very next PrePrepare of the current view is accepted.
            if replica.engine.adopt_view(reply.view, reply.view_certificate):
                replica.counters.views_adopted += 1

    def _verify_view(self, reply: StateTransferReply) -> None:
        """Check the advertised ``(view, certificate)`` before touching state.

        A byzantine responder must not be able to park the rejoiner in a
        bogus future view (it would ignore the real leader) — or smuggle a
        stale view past the session by pairing good entries with a bad
        certificate.  A reply claiming a newer view without a valid quorum
        certificate is discarded wholesale.
        """
        replica = self._replica
        if reply.view <= replica.engine.view:
            return  # nothing to adopt; an older/equal view needs no proof
        certificate = reply.view_certificate
        if certificate is None or certificate.view != reply.view:
            raise StateTransferError("advertised view without a matching certificate")
        if not certificate.verify(
            replica.verifier, replica.cluster_members, replica.engine.quorum
        ):
            raise StateTransferError("view certificate signatures invalid")

    def _verify_image(self, reply: StateTransferReply) -> None:
        replica = self._replica
        image = reply.image
        if image.partition != replica.partition:
            raise StateTransferError("image for the wrong partition")
        if reply.certificate is None:
            # Only the pre-history genesis image may arrive uncertified; its
            # content is validated by replaying batch 0, whose certified
            # Merkle root covers exactly the preloaded data.
            if image.seq != NO_BATCH:
                raise StateTransferError("non-genesis image without a certificate")
            if image.prepared or image.header is not None:
                raise StateTransferError("genesis image carries non-genesis state")
            return
        certificate = reply.certificate
        if (
            certificate.partition != replica.partition
            or certificate.seq != image.seq
            or certificate.digest != image.digest()
        ):
            raise StateTransferError("checkpoint certificate does not cover the image")
        if not certificate.verify(
            replica.verifier,
            replica.cluster_members,
            replica.config.certificate_size,
        ):
            raise StateTransferError("checkpoint certificate signatures invalid")
        header = image.header
        if header is None or header.number != image.seq:
            raise StateTransferError("image header missing or at the wrong batch")
        if not header.verify(
            replica.verifier,
            replica.cluster_members,
            replica.config.certificate_size,
        ):
            raise StateTransferError("image header certificate invalid")

    def _verify_entry(self, entry: LogEntry) -> None:
        replica = self._replica
        batch = entry.value
        if not isinstance(batch, Batch):
            raise StateTransferError(f"log entry {entry.seq} does not carry a batch")
        if batch.partition != replica.partition or batch.number != entry.seq:
            raise StateTransferError(f"log entry {entry.seq} batch mismatch")
        certificate = entry.certificate
        if certificate.seq != entry.seq or certificate.digest != batch.digest():
            raise StateTransferError(f"certificate for entry {entry.seq} mismatched")
        if not certificate.verify(
            replica.verifier,
            replica.cluster_members,
            replica.config.certificate_size,
        ):
            raise StateTransferError(f"certificate for entry {entry.seq} invalid")
