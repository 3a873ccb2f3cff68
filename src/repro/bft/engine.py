"""PBFT-style consensus engine embedded in each cluster replica.

The engine orders opaque proposals (TransEdge batches) within one cluster.
It is deliberately structured as a passive component owned by a
:class:`~repro.simnet.node.SimNode`: the owning replica forwards consensus
messages to :meth:`PbftEngine.handle` and the engine calls back into an
application object for proposal validation and delivery.  This mirrors how
TransEdge layers its transaction-processing logic on top of BFT-SMaRt.

Protocol per instance (sequence number):

1. the leader of the current view signs and broadcasts ``PrePrepare`` with
   the proposal and its digest;
2. every replica that accepts the proposal (signature valid, sender is the
   view's leader, application validation passes) broadcasts a signed
   ``Prepare`` for the digest;
3. on a prepare quorum of ``2f + 1`` (counting the leader's pre-prepare as
   its prepare), replicas broadcast ``Commit``;
4. on a commit quorum of ``2f + 1``, the value is decided; the collected
   commit signatures are re-issued over the decision payload and form the
   :class:`~repro.bft.quorum.CommitCertificate` stored in the log and shared
   with other clusters and clients.

Each instance is one :class:`_Instance` record: the proposal (``None``
until a pre-prepare is accepted, so "pre-prepared" is ``proposal is not
None``), its prepare and commit votes, and two flags.  One rule,
:meth:`PbftEngine._maybe_advance`, runs after every change to a record: a
pre-prepared instance with a prepare quorum sends its commit once
(``commit_sent``), and one with a commit quorum is decided once
(``decided``).  The flags are separate facts because the peers' commits can
decide an instance before this replica's own prepare quorum forms; its
commit still goes out when that quorum does.  Every decision, voted or
adopted from a gossiped certificate, goes through :meth:`PbftEngine._decide`.

A lightweight view change replaces a leader that stops making progress:
replicas that suspect the leader broadcast ``ViewChange`` for view ``v + 1``
and move to the new view once ``2f + 1`` replicas agree; in-flight instances
of the old view are abandoned and it is up to the application (the TransEdge
partition leader) to re-propose its pending batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.common.errors import ConsensusError, NotLeaderError
from repro.common.ids import PartitionId, ReplicaId
from repro.crypto.signatures import Signature
from repro.bft.messages import (
    BftMessage,
    CertificateRebroadcast,
    Commit,
    NewView,
    PrePrepare,
    Prepare,
    ViewChange,
)
from repro.bft.quorum import CommitCertificate, ViewChangeCertificate, VoteTracker

#: Consecutive certificate-rebroadcast rounds without delivery progress
#: before the engine stands down (bounds simulation work when a cluster has
#: genuinely lost liveness; view change and state transfer take over).
_REBROADCAST_ROUND_LIMIT = 10

#: Cadence (simulated ms) at which an engine stalled behind a delivery gap
#: re-broadcasts its highest decided certificate, so a replica that missed an
#: entire instance converges without a full state transfer.
_REBROADCAST_INTERVAL_MS = 50.0


class ConsensusApplication(Protocol):
    """Callbacks the owning replica provides to the engine."""

    def validate_proposal(self, seq: int, proposal: object) -> bool:
        """Return True when the proposal is acceptable to this replica."""
        ...  # pragma: no cover - protocol definition

    def deliver(self, seq: int, proposal: object, certificate: CommitCertificate) -> None:
        """Apply a decided proposal (called in strict sequence order)."""
        ...  # pragma: no cover - protocol definition

    def on_view_change(self, new_view: int, new_leader: ReplicaId) -> None:
        """Notification that the cluster moved to a new view/leader."""
        ...  # pragma: no cover - protocol definition


@dataclass
class _Instance:
    """Book-keeping for one consensus sequence number."""

    seq: int
    view: int
    digest: bytes = b""
    #: ``None`` until a pre-prepare is accepted or a certificate adopted.
    proposal: object = None
    prepares: VoteTracker = field(default_factory=VoteTracker)
    commits: VoteTracker = field(default_factory=VoteTracker)
    commit_sent: bool = False
    decided: bool = False


class PbftEngine:
    """One cluster member's view of the intra-cluster ordering protocol."""

    def __init__(
        self,
        owner,  # SimNode providing .node_id, .send, .broadcast, .signer, .verifier, .env
        partition: PartitionId,
        members: Sequence[ReplicaId],
        application: ConsensusApplication,
        digest_fn: Callable[[object], bytes],
    ) -> None:
        config = owner.env.config
        self._owner = owner
        self._partition = partition
        self._members: Tuple[ReplicaId, ...] = tuple(members)
        #: Votes that make a quorum (``2f + 1``).
        self.quorum: int = config.quorum_size
        self._application = application
        self._digest_fn = digest_fn
        self._registry = owner.verifier

        self.view = 0
        self._instances: Dict[int, _Instance] = {}
        self._next_proposal_seq = 0
        self._next_deliver_seq = 0
        self._pending_deliveries: Dict[int, Tuple[object, CommitCertificate]] = {}
        self._buffered_pre_prepares: Dict[int, Tuple[PrePrepare, object]] = {}
        #: Seqs whose commit votes arrived before their proposal, in arrival
        #: order: the only instances that can make :meth:`is_behind` true.
        self._early_commits: Dict[int, None] = {}
        #: view -> voter -> (the voter's last_delivered, its signature): the
        #: votes a :class:`ViewChangeCertificate` for that view is made of.
        self._view_change_votes: Dict[int, Dict[str, Tuple[int, Signature]]] = {}
        #: Proof of how this replica reached its current view (None at view 0).
        self.view_certificate: Optional[ViewChangeCertificate] = None
        self.decided_count = 0

        # Certificate-rebroadcast fallback: while this replica is stalled
        # behind a delivery gap it periodically gossips its highest decided
        # certificate; peers that are ahead answer with the instance it
        # needs next.
        self._rebroadcast_timer = None
        self._rebroadcast_rounds = 0
        self._rebroadcast_marker = -1

        if len(self._members) < config.cluster_size:
            raise ConsensusError(
                f"cluster of {len(self._members)} members cannot tolerate "
                f"f={config.fault_tolerance}"
            )

    # -- topology helpers ----------------------------------------------------

    @property
    def members(self) -> Tuple[ReplicaId, ...]:
        return self._members

    def leader_of_view(self, view: int) -> ReplicaId:
        return self._members[view % len(self._members)]

    @property
    def current_leader(self) -> ReplicaId:
        return self.leader_of_view(self.view)

    @property
    def is_leader(self) -> bool:
        return self._owner.node_id == self.current_leader

    @property
    def last_delivered_seq(self) -> int:
        return self._next_deliver_seq - 1

    # -- proposing -------------------------------------------------------------

    def propose(self, proposal: object) -> int:
        """Leader entry point: start consensus on ``proposal``.

        Returns the sequence number assigned to the proposal.
        """
        if not self.is_leader:
            raise NotLeaderError(
                f"{self._owner.node_id} is not the leader of view {self.view}"
            )
        seq = max(self._next_proposal_seq, self._next_deliver_seq)
        self._next_proposal_seq = seq + 1
        digest = self._digest_fn(proposal)
        message = PrePrepare(view=self.view, seq=seq, digest=digest, proposal=proposal)
        message.signature = self._owner.signer.sign(message.signing_payload())
        self._owner.broadcast(self._other_members(), message)
        # The leader processes its own pre-prepare locally (no self-message).
        self._accept_pre_prepare(message, self._owner.node_id)
        return seq

    # -- message handling -------------------------------------------------------

    def handle(self, message: BftMessage, src) -> bool:
        """Process a consensus message; returns False for non-consensus types."""
        if isinstance(message, PrePrepare):
            self._on_pre_prepare(message, src)
        elif isinstance(message, (Prepare, Commit)):
            self._on_vote(message, src)
        elif isinstance(message, CertificateRebroadcast):
            self._on_certificate_rebroadcast(message, src)
        elif isinstance(message, ViewChange):
            self._on_view_change_msg(message, src)
        elif isinstance(message, NewView):
            self._on_new_view(message, src)
        else:
            return False
        self._maybe_arm_rebroadcast()
        return True

    # -- the instance steps -----------------------------------------------------

    def _on_pre_prepare(self, message: PrePrepare, src: ReplicaId) -> None:
        if message.view != self.view:
            return
        if src != self.leader_of_view(message.view):
            return  # only the leader of the view may propose
        if not message.verify_sender(src, self._registry):
            return
        if message.digest != self._digest_fn(message.proposal):
            return  # digest does not match the carried proposal
        self._accept_pre_prepare(message, src)

    def _accept_pre_prepare(self, message: PrePrepare, src) -> None:
        if message.seq > self._next_deliver_seq:
            # Batches are validated against the delivered prefix (the paper
            # writes batches one-by-one); hold this proposal until its
            # predecessor has been delivered locally.
            self._buffered_pre_prepares[message.seq] = (message, src)
            return
        instance = self._instance(message.seq, message.view)
        if instance.proposal is not None:
            return
        if not self._application.validate_proposal(message.seq, message.proposal):
            return
        instance.digest = message.digest
        instance.proposal = message.proposal
        prepare = Prepare(view=message.view, seq=message.seq, digest=message.digest)
        prepare.signature = self._owner.signer.sign(prepare.signing_payload())
        # ``src`` is this replica exactly when it leads the view: the leader's
        # pre-prepare doubles as its prepare, so only a follower sends one.
        if src != self._owner.node_id:
            instance.prepares.add(str(src), message.signature)
            self._owner.broadcast(self._other_members(), prepare)
        instance.prepares.add(str(self._owner.node_id), prepare.signature)
        self._maybe_advance(instance)

    def _on_vote(self, message: Prepare | Commit, src: ReplicaId) -> None:
        if message.view != self.view or not self._is_member(src):
            return
        if not message.verify_sender(src, self._registry):
            return
        instance = self._instance(message.seq, message.view)
        if instance.digest and message.digest != instance.digest:
            return
        if isinstance(message, Prepare):
            instance.prepares.add(str(src), message.signature)
        elif instance.commits.add(str(src), message.signature) and instance.proposal is None:
            self._early_commits[message.seq] = None
        self._maybe_advance(instance)

    def _maybe_advance(self, instance: _Instance) -> None:
        """The one advance rule: commit on a prepare quorum, decide on a commit quorum."""
        if instance.proposal is None:
            return
        if not instance.commit_sent and instance.prepares.reached(self.quorum):
            instance.commit_sent = True
            commit = Commit(view=instance.view, seq=instance.seq, digest=instance.digest)
            commit.signature = self._owner.signer.sign(commit.signing_payload())
            self._owner.broadcast(self._other_members(), commit)
            instance.commits.add(str(self._owner.node_id), commit.signature)
        if not instance.decided and instance.commits.reached(self.quorum):
            self._decide(instance, self._build_certificate(instance))

    def _decide(self, instance: _Instance, certificate: CommitCertificate) -> None:
        """Record ``instance`` as decided and deliver whatever is now in order."""
        instance.decided = True
        self.decided_count += 1
        self._pending_deliveries[instance.seq] = (instance.proposal, certificate)
        self._deliver_ready()

    def _build_certificate(self, instance: _Instance) -> CommitCertificate:
        # The 2f + 1 commit votes collected while deciding are transferable
        # proof of agreement: their signatures cover exactly the certificate
        # payload, so they are reused as-is (the paper's "f + 1 signatures
        # collected during consensus are added to the batch", with margin).
        return CommitCertificate(
            partition=self._partition,
            view=instance.view,
            seq=instance.seq,
            digest=instance.digest,
            signatures=instance.commits.signatures(),
        )

    def _certified(self, instance: Optional[_Instance]) -> bool:
        """Decided, with the commit quorum that certifies it in hand (an
        adopted decision holds a gossiped certificate, not the votes)."""
        return (
            instance is not None
            and instance.decided
            and instance.commits.reached(self.quorum)
        )

    def _deliver_ready(self) -> None:
        while self._next_deliver_seq in self._pending_deliveries:
            seq = self._next_deliver_seq
            proposal, certificate = self._pending_deliveries.pop(seq)
            self._next_deliver_seq += 1
            self._application.deliver(seq, proposal, certificate)
        buffered = self._buffered_pre_prepares.pop(self._next_deliver_seq, None)
        if buffered is not None:
            message, src = buffered
            if message.view == self.view:
                self._accept_pre_prepare(message, src)

    # -- checkpoint / recovery hooks -------------------------------------------------

    def install_checkpoint(self, last_delivered: int) -> None:
        """Fast-forward delivery past state installed out of band.

        A recovering replica that restored a checkpoint image (and possibly
        replayed a log suffix) through :mod:`repro.recovery` did not run these
        instances through consensus; this realigns the engine so that the next
        live instance it participates in is ``last_delivered + 1``.  Votes
        already collected for newer instances are kept, so an instance whose
        consensus messages partly arrived during recovery can still decide.
        """
        if last_delivered < self._next_deliver_seq - 1:
            return
        self._next_deliver_seq = last_delivered + 1
        self._next_proposal_seq = max(self._next_proposal_seq, self._next_deliver_seq)
        self.compact_below(self._next_deliver_seq)
        for seq in [s for s in self._pending_deliveries if s <= last_delivered]:
            del self._pending_deliveries[seq]
        self._deliver_ready()

    def has_pending_work(self) -> bool:
        """Evidence that this cluster should be making progress but is not.

        True while any current-view instance has started (a pre-prepare was
        accepted, or prepare/commit votes arrived for an instance whose
        proposal this replica never saw), a pre-prepare is buffered behind a
        delivery gap, or a decided value waits on an undelivered predecessor.
        The replica's progress monitor arms its leader-suspicion timer on
        exactly this predicate — votes spread the evidence, so a leader that
        crashed after reaching only one follower is still suspected by a
        quorum (that follower's prepares create instances everywhere).
        """
        if self._buffered_pre_prepares or self._pending_deliveries:
            return True
        for seq, instance in self._instances.items():
            if seq < self._next_deliver_seq or instance.decided:
                continue
            if instance.view != self.view:
                continue
            if (
                instance.proposal is not None
                or instance.prepares.count() > 0
                or instance.commits.count() > 0
            ):
                return True
        return False

    def is_behind(self) -> bool:
        """True when the cluster demonstrably progressed past this replica.

        Evidence: a pre-prepare buffered behind a delivery gap (the live
        leader proposed an instance whose predecessor this replica never
        delivered), a commit quorum collected for an instance whose
        proposal this replica never saw, or a decided certificate parked
        in ``_pending_deliveries`` waiting for an earlier instance this
        replica missed (its certificate was quorum-verified on arrival, so
        it is unforgeable proof the cluster decided past us).  All of these
        mean the quorum moved on without us — typically because instances
        were decided while this replica was crashed or mid-recovery — and
        no amount of suspecting the (healthy, progressing) leader will
        close the gap; only state transfer will.  The progress monitor
        uses this to pick catch-up recovery over a futile view-change
        vote.  The pending-deliveries clause matters most when the
        stalled replica is itself the leader (elected by a view change
        while it was crashed): peers that delivered the missing instance
        may have no commit certificate left to re-serve, so certificate
        rebroadcast cannot close the gap and catch-up is the only exit.
        (A re-proposal of an already-delivered sequence number can also be
        decided again and parked *below* the delivery point, where nothing
        delivers or clears it; ROADMAP A(2) owns that fix.)
        """
        if self._buffered_pre_prepares or self._pending_deliveries:
            return True
        # Commits without a proposal: re-checked, and pruned once the seq is
        # delivered or its instance decided, proposed, dropped or replaced.
        # A replacing instance is listed again by its own early commit.
        for seq in list(self._early_commits):
            instance = self._instances.get(seq)
            if (
                instance is None
                or seq < self._next_deliver_seq
                or instance.decided
                or instance.proposal is not None
            ):
                del self._early_commits[seq]
            elif instance.commits.reached(self.quorum):
                return True
        return False

    def compact_below(self, seq: int) -> None:
        """Drop bookkeeping for instances below ``seq`` (stable-checkpoint GC).

        Without compaction every decided instance lives forever; the
        checkpoint manager calls this when a checkpoint becomes stable so
        that engine memory, like the log, stays bounded by the checkpoint
        interval.
        """
        self._instances = {s: inst for s, inst in self._instances.items() if s >= seq}
        for buffered_seq in [s for s in self._buffered_pre_prepares if s < seq]:
            del self._buffered_pre_prepares[buffered_seq]

    # -- certificate rebroadcast (reliable-delivery fallback) -----------------------

    def _maybe_arm_rebroadcast(self) -> None:
        if self._rebroadcast_timer is not None or not self.is_behind():
            return
        self._rebroadcast_timer = self._owner.schedule(
            _REBROADCAST_INTERVAL_MS, self._on_rebroadcast_timer
        )

    def _on_rebroadcast_timer(self) -> None:
        self._rebroadcast_timer = None
        if not self.is_behind():
            self._rebroadcast_rounds = 0
            return
        if self._next_deliver_seq > self._rebroadcast_marker:
            # Delivery progressed since the last round; start counting afresh.
            self._rebroadcast_rounds = 0
        self._rebroadcast_marker = self._next_deliver_seq
        if self._rebroadcast_rounds >= _REBROADCAST_ROUND_LIMIT:
            return  # stand down; view change / state transfer take over
        self._rebroadcast_rounds += 1
        # Gossip this replica's highest decided instance, parked or certified.
        best = max(self._pending_deliveries, default=-1)
        proposal, certificate = self._pending_deliveries.get(best, (None, None))
        for seq, instance in self._instances.items():
            if seq > best and self._certified(instance):
                best, proposal = seq, instance.proposal
                certificate = self._build_certificate(instance)
        self._owner.broadcast(self._other_members(), self._gossip(best, proposal, certificate))
        self._maybe_arm_rebroadcast()

    def _gossip(
        self, seq: int, proposal: object, certificate: Optional[CommitCertificate]
    ) -> CertificateRebroadcast:
        """A signed rebroadcast of decision ``seq`` and this replica's delivery tip."""
        message = CertificateRebroadcast(
            view=self.view,
            seq=seq,
            digest=certificate.digest if certificate is not None else b"",
            proposal=proposal,
            certificate=certificate,
            last_delivered=self.last_delivered_seq,
        )
        message.signature = self._owner.signer.sign(message.signing_payload())
        return message

    def _on_certificate_rebroadcast(self, message: CertificateRebroadcast, src: ReplicaId) -> None:
        if not self._is_member(src):
            return
        if not message.verify_sender(src, self._registry):
            return
        self._adopt_certificate(message.seq, message.proposal, message.certificate)
        if message.last_delivered >= self.last_delivered_seq:
            return
        # The sender is behind us: answer with the instance it needs next
        # (if checkpoint GC has not compacted it away yet — past that,
        # catch-up state transfer is the designed fallback).
        needed = message.last_delivered + 1
        instance = self._instances.get(needed)
        if self._certified(instance):
            certificate = self._build_certificate(instance)
            self._owner.send(src, self._gossip(needed, instance.proposal, certificate))

    def _adopt_certificate(
        self,
        seq: int,
        proposal: object,
        certificate: Optional[CommitCertificate],
    ) -> None:
        """Accept a gossiped decision after full verification."""
        if certificate is None or proposal is None or seq < 0:
            return
        if seq < self._next_deliver_seq or seq in self._pending_deliveries:
            return
        if certificate.partition != self._partition or certificate.seq != seq:
            return
        if certificate.digest != self._digest_fn(proposal):
            return
        if not certificate.verify(self._registry, self._members, self.quorum):
            return
        # A decided instance is delivered or pending delivery, both refused
        # above: this one is undecided.
        instance = self._instances.get(seq)
        if instance is None:
            instance = _Instance(seq=seq, view=certificate.view)
            self._instances[seq] = instance
        instance.digest = certificate.digest
        instance.proposal = proposal
        instance.commit_sent = True
        self._decide(instance, certificate)

    # -- view change ---------------------------------------------------------------

    def suspect_leader(self) -> None:
        """Vote to replace the current leader (progress timeout expired)."""
        message = ViewChange(view=self.view + 1, last_delivered=self.last_delivered_seq)
        message.signature = self._owner.signer.sign(message.signing_payload())
        self._owner.broadcast(self._other_members(), message)
        self._record_view_change_vote(message, str(self._owner.node_id))

    def _on_view_change_msg(self, message: ViewChange, src: ReplicaId) -> None:
        if message.view <= self.view or not self._is_member(src):
            return
        if not message.verify_sender(src, self._registry):
            return
        self._record_view_change_vote(message, str(src))

    def _record_view_change_vote(self, vote: ViewChange, voter: str) -> None:
        votes = self._view_change_votes.setdefault(vote.view, {})
        votes.setdefault(voter, (vote.last_delivered, vote.signature))
        if len(votes) >= self.quorum and vote.view > self.view:
            certificate = ViewChangeCertificate(
                view=vote.view, votes=tuple(votes[name] for name in sorted(votes))
            )
            self._enter_view(vote.view, certificate)
            if self.is_leader:
                announce = NewView(view=vote.view, votes=certificate.votes)
                announce.signature = self._owner.signer.sign(announce.signing_payload())
                self._owner.broadcast(self._other_members(), announce)

    def _on_new_view(self, message: NewView, src: ReplicaId) -> None:
        if message.view <= self.view or not self._is_member(src):
            return
        if src != self.leader_of_view(message.view):
            return
        if not message.verify_sender(src, self._registry):
            return
        # The announcement alone is not proof: the carried view-change votes
        # must form a real quorum certificate for this view.
        certificate = ViewChangeCertificate(view=message.view, votes=tuple(message.votes))
        if not certificate.verify(self._registry, self._members, self.quorum):
            return
        self._enter_view(message.view, certificate)

    def adopt_view(
        self, view: int, certificate: Optional[ViewChangeCertificate]
    ) -> bool:
        """Jump to ``view`` on transferable proof (state-transfer rejoin).

        A recovering replica restarts in view 0; the peer that answered its
        state transfer advertises the cluster's current view together with
        the quorum certificate that elected it.  Verifying that certificate
        lets the rejoiner follow the live leader immediately — accepting its
        very next ``PrePrepare`` — instead of ignoring proposals until the
        next organic view change.  Returns True when the view was adopted
        (or already current).
        """
        if view < self.view:
            return False
        if view == self.view:
            return True
        if certificate is None or certificate.view != view:
            return False
        if not certificate.verify(self._registry, self._members, self.quorum):
            return False
        self._enter_view(view, certificate)
        return True

    def _enter_view(self, new_view: int, certificate: ViewChangeCertificate) -> None:
        self.view_certificate = certificate
        self.view = new_view
        # Abandon undecided instances of older views; the application
        # re-proposes whatever it still needs ordered.
        self._instances = {
            seq: inst for seq, inst in self._instances.items() if inst.decided
        }
        self._buffered_pre_prepares.clear()
        self._next_proposal_seq = self._next_deliver_seq
        # Drop vote bookkeeping for views the cluster has moved past; the
        # current view's certificate is retained in ``view_certificate``.
        for view in [v for v in self._view_change_votes if v <= new_view]:
            del self._view_change_votes[view]
        self._application.on_view_change(new_view, self.current_leader)

    # -- helpers --------------------------------------------------------------------

    def _instance(self, seq: int, view: int) -> _Instance:
        instance = self._instances.get(seq)
        if instance is None or instance.view != view:
            instance = _Instance(seq=seq, view=view)
            self._instances[seq] = instance
        return instance

    def _other_members(self) -> List[ReplicaId]:
        return [member for member in self._members if member != self._owner.node_id]

    def _is_member(self, node: ReplicaId) -> bool:
        return node in self._members
