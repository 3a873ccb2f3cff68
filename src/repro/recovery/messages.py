"""Messages of the state-transfer protocol.

A restarted (or lagging) replica broadcasts a :class:`StateTransferRequest`
to its cluster peers stating the highest sequence number it still holds.
Each peer answers with a :class:`StateTransferReply` carrying, when needed,
its latest stable checkpoint image plus certificate and the SMR-log suffix
above it.  Nothing in a reply is taken on trust: the requester verifies the
checkpoint certificate against the image digest, every log entry's commit
certificate, and the certified Merkle root after each replayed batch — so a
single honest responder suffices and a lying one is simply discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bft.log import LogEntry
from repro.bft.messages import proposal_well_formed
from repro.bft.quorum import CommitCertificate, ViewChangeCertificate
from repro.common.ids import NO_BATCH, BatchNumber, PartitionId
from repro.recovery.checkpoint import CheckpointCertificate
from repro.recovery.snapshot import SnapshotImage
from repro.simnet.messages import Message


def _absent_or_well_formed(value: object, kind: type) -> bool:
    """Is ``value`` absent or a ``kind`` of the declared shape, all the way down?"""
    return value is None or (isinstance(value, kind) and value.well_formed())


@dataclass
class StateTransferRequest(Message):
    """"I hold the log up to ``have_seq``; send me what I am missing."""

    partition: PartitionId = 0
    have_seq: BatchNumber = NO_BATCH

    def well_formed(self) -> bool:
        return isinstance(self.partition, int) and isinstance(self.have_seq, int)


@dataclass
class StateTransferReply(Message):
    """A peer's answer: an optional checkpoint base plus the log suffix.

    ``image``/``certificate`` are present when the requester's ``have_seq``
    lies below the responder's stable checkpoint (or, before any checkpoint
    exists, the uncertified genesis image of the preloaded data).
    ``entries`` is the contiguous log suffix starting right above the image
    (or above ``have_seq`` when no image is needed).

    ``view``/``view_certificate`` advertise the responder's current view and
    the quorum certificate that elected it, so the rejoiner follows the live
    leader immediately (``PbftEngine.adopt_view``) instead of staying in a
    stale view until the next organic view change.  ``responder_tip`` is the
    highest sequence number the responder itself has certified: recovery only
    *completes* once the rejoiner's log has caught up to a responder's tip,
    so a reply from a peer that is itself behind cannot falsely complete it.
    """

    partition: PartitionId = 0
    image: Optional[SnapshotImage] = None
    certificate: Optional[CheckpointCertificate] = None
    entries: Tuple[LogEntry, ...] = ()
    view: int = 0
    view_certificate: Optional[ViewChangeCertificate] = None
    responder_tip: BatchNumber = NO_BATCH

    def well_formed(self) -> bool:
        """Do the fields have the declared shape?

        Any cluster member can send a reply, so the receiver checks this
        before its cost model or recovery session reads a field; what the
        fields *claim* is verified afterwards, against certificates.
        """
        return (
            isinstance(self.view, int)
            and isinstance(self.responder_tip, int)
            and _absent_or_well_formed(self.image, SnapshotImage)
            and _absent_or_well_formed(self.certificate, CheckpointCertificate)
            and _absent_or_well_formed(self.view_certificate, ViewChangeCertificate)
            and isinstance(self.entries, tuple)
            and all(
                isinstance(entry, LogEntry)
                and isinstance(entry.seq, int)
                and isinstance(entry.certificate, CommitCertificate)
                and proposal_well_formed(entry.value)
                for entry in self.entries
            )
        )

    def highest_seq(self) -> BatchNumber:
        """The highest sequence number this reply carries state for."""
        highest = self.image.seq if self.image is not None else NO_BATCH
        return max(highest, self.entries[-1].seq) if self.entries else highest
