"""Quorum tracking and commit certificates.

A :class:`CommitCertificate` is the transferable proof that a cluster agreed
on a value: at least ``f + 1`` (by default ``2f + 1``) signatures from
distinct cluster members over the decided ``(view, seq, digest)``.  TransEdge
attaches these certificates to batches, to 2PC prepare/commit messages sent
across clusters, and to read-only responses so that a single node can prove
to a client that the data it returns was agreed on by its cluster
(Sections 3.3 and 4.2 of the paper).  A certificate that arrives in a
message is shape-checked from its annotations with that message
(:mod:`repro.common.shapes`); what it claims is checked by ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Tuple

from repro.common.ids import PartitionId, ReplicaId
from repro.common.types import MemoisedValue
from repro.crypto.signatures import KeyRegistry, Signature, signature_well_formed


def certificate_payload(view: int, seq: int, digest: bytes) -> object:
    """Canonical payload that certificate signatures cover.

    This is exactly the payload of a PBFT ``Commit`` vote, so the ``2f + 1``
    commit signatures a replica collects while deciding double as the
    transferable certificate — no extra signing round is needed.
    """
    return ["commit", view, seq, digest]


def checkpoint_payload(seq: int, digest: bytes) -> object:
    """Canonical payload checkpoint-vote signatures cover.

    Shared by ``CheckpointVote.signing_payload`` and
    ``CheckpointCertificate.payload`` (``repro.recovery``): votes are signed
    and certificates verified over the same bytes by construction.
    """
    return ["checkpoint", int(seq), digest]


def view_change_payload(view: int, last_delivered: int) -> object:
    """Canonical payload a ``ViewChange`` vote's signature covers.

    Shared by ``ViewChange.signing_payload`` and
    :meth:`ViewChangeCertificate.verify`: each vote signs its sender's own
    ``last_delivered``, so a certificate is a *set* of individually signed
    votes rather than one payload signed by a quorum.
    """
    return ["view-change", view, last_delivered]


@dataclass(frozen=True)
class ViewChangeCertificate:
    """Transferable proof that ``2f + 1`` cluster members voted for ``view``.

    ``votes`` holds ``(last_delivered, signature)`` pairs — each signature
    covers :func:`view_change_payload` for its sender's own delivery tip, so
    verification checks every vote against its own payload and counts
    distinct valid member signers.  The certificate travels in ``NewView``
    announcements (a byzantine "leader" of a higher view cannot summon the
    cluster without real votes) and in state-transfer replies (a rejoining
    replica adopts the cluster's current view only against this proof).
    """

    view: int
    votes: Tuple[Tuple[int, Signature], ...]

    def verify(
        self,
        registry: KeyRegistry,
        cluster_members: Iterable[ReplicaId],
        required: int,
    ) -> bool:
        """Check ``required`` distinct members validly voted for ``view``."""
        allowed = {str(member) for member in cluster_members}
        valid_signers = set()
        for last_delivered, signature in self.votes:
            if not signature_well_formed(signature) or signature.signer not in allowed:
                continue
            if signature.signer in valid_signers:
                continue
            payload = view_change_payload(self.view, last_delivered)
            if registry.verify(payload, signature):
                valid_signers.add(signature.signer)
        return len(valid_signers) >= required


@dataclass(frozen=True)
class CommitCertificate(MemoisedValue):
    """Proof that a cluster decided ``digest`` at sequence ``seq``."""

    partition: PartitionId
    view: int
    seq: int
    digest: bytes
    signatures: Tuple[Signature, ...]

    def payload(self) -> object:
        return certificate_payload(self.view, self.seq, self.digest)

    def signers(self) -> Tuple[str, ...]:
        return tuple(signature.signer for signature in self.signatures)

    @cached_property
    def _verified_fields(self) -> Optional[tuple]:
        """Every field :meth:`verify` reads, as one flat tuple of primitives:
        the certificate's share of the verdict-memo key, built once so that a
        probe walks no signatures.  ``None`` for a certificate (outside input)
        that is not well-formed: a non-tuple ``signatures``, a non-``Signature``
        entry, a field not exactly ``int``/``str``/``bytes`` (``True == 1`` as
        a key but not under a signature; a ``list`` is no key at all).
        """
        if not isinstance(self.signatures, tuple):
            return None
        fields = [self.partition, self.view, self.seq, self.digest]
        for signature in self.signatures:
            if not isinstance(signature, Signature):
                return None
            fields += (signature.signer, signature.scheme, signature.value)
        if not all(type(field) in (int, str, bytes) for field in fields):
            return None
        return tuple(fields)

    def verify(
        self,
        registry: KeyRegistry,
        cluster_members: Iterable[ReplicaId],
        required: int,
    ) -> bool:
        """Check the certificate carries ``required`` valid member signatures.

        Only a certificate ``registry``'s cache has not seen pass against these
        members and this threshold pays for ``verify_quorum``.
        """
        fields = self._verified_fields
        if fields is None:
            return False
        members = tuple(cluster_members)
        cache = registry.cache
        key = (fields, members, required)
        if cache.probe(key):
            return True
        allowed = {str(member) for member in members}
        valid = registry.verify_quorum(
            self.payload(), self.signatures, required=required, allowed_signers=allowed
        )
        if valid:
            cache.store(key, True)
        return valid


class VoteTracker:
    """Collects signed votes for one ``(view, seq, digest)`` from distinct senders."""

    def __init__(self) -> None:
        self._votes: Dict[str, Signature] = {}

    def add(self, sender: str, signature: Optional[Signature]) -> bool:
        """Record a vote; returns False for duplicate senders."""
        if sender in self._votes:
            return False
        if signature is None:
            return False
        self._votes[sender] = signature
        return True

    def count(self) -> int:
        return len(self._votes)

    def reached(self, threshold: int) -> bool:
        return len(self._votes) >= threshold

    def voters(self) -> Tuple[str, ...]:
        return tuple(sorted(self._votes))

    def signatures(self) -> Tuple[Signature, ...]:
        return tuple(self._votes[name] for name in sorted(self._votes))
