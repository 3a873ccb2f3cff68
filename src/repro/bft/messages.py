"""Messages of the intra-cluster BFT agreement protocol.

The cluster-internal ordering protocol follows the classic PBFT message
pattern that BFT-SMaRt also implements: the leader broadcasts a signed
``PrePrepare`` carrying the proposal (a TransEdge batch), replicas exchange
``Prepare`` and ``Commit`` votes on the proposal digest, and an instance is
decided once a ``2f + 1`` commit quorum exists.  All messages are signed by
their sender; votes only ever reference the proposal digest.  Any member
can send anything: every field has the shape its annotation declares
(:mod:`repro.common.shapes`) before a handler reads it, and an opaque
``proposal`` answers through its own annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.bft.quorum import CommitCertificate, checkpoint_payload, view_change_payload
from repro.crypto.signatures import KeyRegistry, Signature
from repro.simnet.messages import Message


@dataclass
class BftMessage(Message):
    """Common fields of every consensus message.

    Note: nothing verification-related is ever memoized *on* a message.
    Messages travel by reference and their contents are sender-controlled, so
    any carried digest could be poisoned to alias a different payload in the
    verify cache; verifiers (the :class:`~repro.crypto.signatures.KeyRegistry`)
    always canonicalise what they actually received.
    """

    view: int = 0
    seq: int = 0
    signature: Optional[Signature] = field(default=None, kw_only=True)

    def signing_payload(self) -> object:
        """Canonical payload covered by the sender's signature."""
        raise NotImplementedError

    def verify_sender(self, src, verifier: KeyRegistry) -> bool:
        """Is this message signed by ``src``, under a signature ``verifier`` accepts?"""
        signature = self.signature
        if signature is None or signature.signer != str(src):
            return False
        # The verifier memoizes verdicts under a digest it computes itself
        # from the received payload (never one the message carries).
        return verifier.verify(self.signing_payload(), signature)


@dataclass
class PrePrepare(BftMessage):
    """Leader's proposal for sequence number ``seq`` in ``view``."""

    digest: bytes = b""
    proposal: object = None

    def signing_payload(self) -> object:
        return ["pre-prepare", self.view, self.seq, self.digest]


@dataclass
class Prepare(BftMessage):
    """A replica's vote that it received the leader's proposal."""

    digest: bytes = b""

    def signing_payload(self) -> object:
        return ["prepare", self.view, self.seq, self.digest]


@dataclass
class Commit(BftMessage):
    """A replica's vote that a prepare quorum exists for the proposal."""

    digest: bytes = b""

    def signing_payload(self) -> object:
        return ["commit", self.view, self.seq, self.digest]


@dataclass
class CheckpointVote(BftMessage):
    """A replica's vote that its partition state at ``seq`` digests to ``digest``.

    Periodic checkpoints follow the classic PBFT pattern: every
    ``CheckpointConfig.interval_batches`` delivered batches each replica
    digests a restorable image of its state and broadcasts this vote.
    ``2f + 1`` matching votes form a checkpoint certificate that makes the
    checkpoint *stable*, allowing the SMR log below it to be truncated and
    the image to be served to recovering replicas (see ``repro.recovery``).
    Checkpoints are view-independent, so ``view`` is not signed.
    """

    digest: bytes = b""

    def signing_payload(self) -> object:
        return checkpoint_payload(self.seq, self.digest)


@dataclass
class CertificateRebroadcast(BftMessage):
    """Periodic catch-up gossip for instances a peer may have missed entirely.

    A replica stalled behind a delivery gap broadcasts its highest decided
    instance — proposal, digest and transferable
    :class:`~repro.bft.quorum.CommitCertificate` — together with its own
    delivery tip (``last_delivered``).  A peer that is *ahead* answers with
    the same message shaped around the instance the sender needs next, which
    lets a replica that missed a whole instance (e.g. past the reliable
    channel's abandonment cap) converge one instance per round without a
    full state transfer.  The carried certificate is self-certifying:
    receivers verify the digest against the proposal and the certificate
    against the cluster's quorum before adopting anything; the outer
    signature merely authenticates the gossiping sender.
    """

    digest: bytes = b""
    proposal: object = None
    certificate: Optional[CommitCertificate] = None
    last_delivered: int = -1

    def signing_payload(self) -> object:
        return ["cert-rebroadcast", self.view, self.seq, self.digest, self.last_delivered]


@dataclass
class ViewChange(BftMessage):
    """A replica's declaration that the current leader is suspected faulty.

    ``view`` carries the *new* view the sender wants to move to and
    ``last_delivered`` the highest sequence number it has delivered, which the
    new leader uses to know where to resume proposing.
    """

    last_delivered: int = -1

    def signing_payload(self) -> object:
        return view_change_payload(self.view, self.last_delivered)


@dataclass
class NewView(BftMessage):
    """The new leader's announcement that the view change is complete.

    ``votes`` carries the ``(last_delivered, signature)`` view-change votes
    that elected this view (a :class:`~repro.bft.quorum.ViewChangeCertificate`
    in wire form; the supporters are the votes' signers).  Receivers verify
    the votes rather than trusting the announcement: a byzantine replica
    whose turn the rotation has not reached cannot move the cluster to "its"
    view without ``2f + 1`` real votes, and every replica that follows the
    announcement ends up holding the same transferable certificate it can
    later hand to rejoining peers.
    """

    votes: Tuple[Tuple[int, Signature], ...] = ()

    def signing_payload(self) -> object:
        return ["new-view", self.view]
