"""Leader role: batch construction and 2PC-over-BFT coordination.

The replica currently acting as its cluster's leader runs this role.  It
owns the in-progress batch (Figure 2), admits transactions with the conflict
rules of Definition 3.1, seals batches (the committed segment, then the
read-only segment every validator re-derives) and proposes them to the
cluster's consensus, and drives the Two-Phase-Commit protocol with the
leaders of other clusters — every 2PC step is only communicated after the
batch recording it has been written to the SMR log, so a byzantine leader
cannot lie about a step it never persisted (Section 3.3).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.common.ids import BatchNumber, NodeId, PartitionId, ReplicaId
from repro.common.types import TxnStatus
from repro.core.batch import (
    Batch,
    CertifiedHeader,
    CommitRecord,
    PreparedRecord,
    PreparedVote,
    ReadOnlySegment,
)
from repro.core.messages import (
    CommitReply,
    CommitRequest,
    CoordinatorPrepare,
    DecisionMessage,
    DecisionQuery,
    ParticipantPrepared,
    outcome,
)
from repro.core.occ import KeyConflictIndex
from repro.core.prepared import PrepareGroup
from repro.core.transaction import TxnPayload
from repro.obs.trace import Span, TraceContext
from repro.simnet.messages import Message
from repro.storage.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.core.replica import PartitionReplica

#: Cadence (simulated ms) at which a leader re-drives unfinished 2PC work —
#: re-sending coordinator prepares for missing votes, participant votes, and
#: ``DecisionQuery`` — and the attempt budget per transaction.
_TWO_PC_RETRY_MS = 40.0
_TWO_PC_MAX_RETRIES = 10

#: Why a writer is refused for a read-only transaction's shared lock (Augustus).
LOCK_REFUSAL = "read-lock interference with a read-only transaction"


@dataclass
class _WaitingClient:
    """A client waiting for the outcome of a transaction it submitted here."""

    client: NodeId
    request_id: str


class LeaderRole:
    """Batch building and 2PC coordination for one partition's leader."""

    def __init__(self, replica: "PartitionReplica") -> None:
        self._replica = replica
        self._in_progress_local: List[TxnPayload] = []
        self._in_progress_prepared: List[PreparedRecord] = []
        self._in_progress_index = KeyConflictIndex(replica.partition, replica.partitioner)
        self._waiting_clients: Dict[str, _WaitingClient] = {}
        #: All the 2PC state a leader holds that is not in the SMR log: the
        #: votes collected so far for each transaction it coordinates, and
        #: the prepares it admitted as participant and has not seen decided.
        #: Every other 2PC fact — this cluster's own vote, the participants,
        #: "decided" — is derived where it is used from the replicated
        #: prepare group and its certified header, so the leader that wrote
        #: a prepare and a successor resuming it run the same code.
        self._votes: Dict[str, Dict[PartitionId, PreparedVote]] = {}
        self._participating: Set[str] = set()
        self._consensus_in_flight = False
        self._seal_timer = None
        self._twopc_timer = None
        self._twopc_attempts: Dict[str, int] = {}
        #: Coordinations this leader had to give up on, txn id → diagnostic.
        #: Resuming a predecessor's 2PC needs the certified header of the
        #: prepare batch; checkpoint GC pins those headers past the retention
        #: window and ``SnapshotImage`` carries them across restores, so on
        #: honest replicas this stays empty.  It remains reachable when the
        #: header is genuinely absent (e.g. state planted by a byzantine
        #: image source) and is reported here (and counted in
        #: ``two_pc_unresumable``) so the condition surfaces as a diagnostic
        #: instead of a silent stall.
        self.unresumable: Dict[str, str] = {}
        #: Causal tracing (repro.obs): the open leader-side span of each
        #: traced transaction, and the commit request's context — needed
        #: because replies and 2PC messages are sent from batch-delivery
        #: handlers where no traced dispatch is current.
        self._obs_spans: Dict[str, Span] = {}
        self._obs_ctx: Dict[str, TraceContext] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def _partition(self) -> PartitionId:
        return self._replica.partition

    @property
    def _partitioner(self):
        return self._replica.partitioner

    def _leader_of(self, partition: PartitionId) -> ReplicaId:
        return self._replica.topology.leader(partition)

    def in_progress_size(self) -> int:
        return len(self._in_progress_local) + len(self._in_progress_prepared)

    def _refusal(self, txn: TxnPayload, batch_index: KeyConflictIndex) -> str:
        """Why ``txn`` may not join the batch ``batch_index`` indexes ("" if it may).

        Definition 3.1 first, then the Augustus read locks: a writer is refused
        for a read-only transaction's lock only when no conflict refuses it.
        """
        replica = self._replica
        indexes = (batch_index, replica.prepared_batches.index)
        report = replica.conflict_checker().check(txn, indexes)
        if not report.ok:
            return report.reason
        for key in txn.write_keys_in(self._partition, self._partitioner):
            if replica.locks.is_share_locked(key):
                return LOCK_REFUSAL
        return ""

    def _count_abort(self, reason: str) -> None:
        """Charge one refusal to the counter its reason names."""
        if reason == LOCK_REFUSAL:
            self._replica.counters.lock_interference_aborts += 1
        else:
            self._replica.counters.conflict_aborts += 1

    def _acquire_write_locks(self, txn: TxnPayload) -> None:
        """Mark the transaction's local write keys as write-locked.

        TransEdge itself never consults these locks — its read-only protocol
        is lock-free — but the Augustus baseline's quorum reads do: a shared
        lock cannot be granted while an in-flight transaction holds the key,
        which is the interference the paper measures (Figure 7, Table 1).
        """
        keys = txn.write_keys_in(self._partition, self._partitioner)
        if keys:
            self._replica.locks.try_acquire(txn.txn_id, keys, LockMode.EXCLUSIVE)

    def _release_write_locks(self, txn_id: str) -> None:
        self._replica.locks.release_all(txn_id)

    def _abort_vote(self, txn_id: str) -> PreparedVote:
        """Build this partition's negative 2PC vote, signed by this leader.

        The signature is what lets remote validators attribute the abort to
        a member of the voting cluster (see :class:`PreparedVote`).
        """
        vote = PreparedVote(txn_id=txn_id, partition=self._partition, vote=False)
        return dataclasses.replace(
            vote, signature=self._replica.signer.sign(vote.abort_signing_payload())
        )

    def _participants(self, txn: TxnPayload) -> List[PartitionId]:
        """The other clusters a transaction coordinated here touches, in order."""
        return sorted(txn.partitions(self._partitioner) - {self._partition})

    def _own_vote(self, txn_id: str, group: PrepareGroup) -> Optional[PreparedVote]:
        """This cluster's positive vote for a prepare written in ``group``.

        The vote's proof is the certified header of the batch that wrote the
        prepare, so the vote is a function of the replicated state alone:
        whoever leads the cluster builds the same one.  ``None`` when that
        header is genuinely absent (see :attr:`unresumable`).
        """
        header = self._replica.header_at(group.batch_number)
        if header is None:
            return None
        return PreparedVote(
            txn_id=txn_id,
            partition=self._partition,
            vote=True,
            prepare_batch=group.batch_number,
            cd_vector=header.cd_vector,
            header=header,
        )

    def _reply_outcome(
        self, waiting: _WaitingClient, txn_id: str, batch: BatchNumber, committed: bool = True
    ) -> None:
        """Answer a client from its transaction's replicated outcome.

        ``batch`` delivered the outcome: a local transaction (always
        committed) or a distributed one's commit record and its decision.
        """
        self._send_commit_reply(
            waiting.client,
            CommitReply(
                request_id=waiting.request_id, txn_id=txn_id, **outcome(committed, batch)
            ),
        )

    def _reply_abort(self, txn: TxnPayload, waiting: _WaitingClient, reason: str) -> None:
        self._count_abort(reason)
        self._send_commit_reply(
            waiting.client,
            CommitReply(
                request_id=waiting.request_id,
                txn_id=txn.txn_id,
                status=TxnStatus.ABORTED,
                abort_reason=reason,
            ),
        )

    # ------------------------------------------------------------------
    # causal tracing (repro.obs)
    # ------------------------------------------------------------------

    def _obs_admit(self, txn_id: str, message: CommitRequest) -> None:
        """Open the leader-side span of a freshly admitted transaction.

        ``leader:batch-wait`` (phase ``queue``) covers admission until the
        batch seals, when :meth:`_obs_seal` replaces it with
        ``leader:consensus``.  Consensus votes and 2PC bookkeeping are
        untraced protocol traffic, so these two spans are what attribute
        batching and ordering/2PC time to the transaction.
        """
        obs = self._replica.env.obs
        if not obs.tracing or message.trace is None:
            return
        parent = self._replica._current_span
        span = obs.tracer.span(
            message.trace.trace_id,
            parent.span_id if parent is not None else message.trace.span_id,
            "leader:batch-wait",
            str(self._replica.node_id),
            "queue",
        )
        self._obs_spans[txn_id] = span
        self._obs_ctx[txn_id] = message.trace

    def _obs_participant_admit(self, txn_id: str, message: CoordinatorPrepare) -> None:
        """Remember a traced prepare's context, to stamp our vote with it."""
        if self._replica.env.obs.tracing and message.trace is not None:
            self._obs_ctx[txn_id] = message.trace

    def _obs_seal(self, txn_id: str) -> None:
        """The transaction entered a sealed batch: batch-wait → consensus."""
        span = self._obs_spans.get(txn_id)
        if span is None:
            return
        tracer = self._replica.env.obs.tracer
        tracer.finish(span)
        self._obs_spans[txn_id] = tracer.span(
            span.trace_id,
            span.span_id,
            "leader:consensus",
            str(self._replica.node_id),
            "consensus",
        )

    def _obs_stamp(self, txn_id: str, message: Message) -> None:
        """Stamp a 2PC message sent from outside any traced dispatch."""
        if message.trace is not None:
            return
        span = self._obs_spans.get(txn_id)
        if span is not None:
            message.trace = span.context()
            return
        ctx = self._obs_ctx.get(txn_id)
        if ctx is not None:
            message.trace = ctx

    def _send_commit_reply(self, client: NodeId, reply: CommitReply) -> None:
        """Single exit point for every commit reply this leader sends.

        Closes the transaction's leader-side span (status mirrors the
        outcome) and stamps the reply so the client-side trace completes.
        The chaos bug ``drop-commit-replies`` patches this method.
        """
        span = self._obs_spans.pop(reply.txn_id, None)
        self._obs_ctx.pop(reply.txn_id, None)
        if span is not None:
            status = "ok" if reply.status is TxnStatus.COMMITTED else "abort"
            self._replica.env.obs.tracer.finish(span, status=status)
            if reply.trace is None:
                reply.trace = span.context()
        self._replica.env.obs.event(
            str(self._replica.node_id),
            "commit-reply",
            "debug",
            {
                "txn": reply.txn_id,
                "client": str(client),
                "status": reply.status.name.lower(),
            },
        )
        self._replica.send(client, reply)

    # ------------------------------------------------------------------
    # client commit requests
    # ------------------------------------------------------------------

    def on_commit_request(self, message: CommitRequest, src: NodeId) -> None:
        txn = message.txn
        waiting = _WaitingClient(client=src, request_id=message.request_id)
        if txn is None:
            return
        if not self._replica.is_leader:
            self._reply_abort(txn, waiting, "not the current leader of this partition")
            return
        if self._replica.recovery.in_progress:
            # Mid-state-transfer this replica's state is not authoritative;
            # admitting work now could propose against a stale prefix.  The
            # client retries (see POSITIONAL_REFUSALS).
            self._reply_abort(txn, waiting, "replica is recovering, retry later")
            return
        if self._answer_duplicate_commit_request(txn, waiting):
            return
        accessed = txn.partitions(self._partitioner)
        if self._partition not in accessed:
            self._reply_abort(txn, waiting, "coordinator partition not accessed by transaction")
            return

        reason = self._refusal(txn, self._in_progress_index)
        if reason:
            self._reply_abort(txn, waiting, reason)
            return

        self._waiting_clients[txn.txn_id] = waiting
        self._obs_admit(txn.txn_id, message)
        self._in_progress_index.add(txn)
        self._acquire_write_locks(txn)
        if len(accessed) == 1:
            self._in_progress_local.append(txn)
        else:
            self._votes[txn.txn_id] = {}
            self._in_progress_prepared.append(
                PreparedRecord(txn=txn, coordinator=self._partition)
            )
        self._ensure_seal_scheduled()

    def _answer_duplicate_commit_request(
        self, txn: TxnPayload, waiting: _WaitingClient
    ) -> bool:
        """Handle a commit request for a transaction this cluster already knows.

        Clients proactively re-send their pending requests to a freshly
        elected leader when they observe a view change (instead of waiting
        out the commit timeout), so a leader must expect duplicates: of
        transactions already decided (answer from the replicated record), of
        transactions in flight here (just re-point the reply), and of
        transactions the deposed leader prepared but never finished (adopt
        the waiting client and let the 2PC resumption machinery answer when
        the decision lands).  Returns True when the request was absorbed.
        """
        replica = self._replica
        txn_id = txn.txn_id
        decided = replica.decided.get(txn_id)
        if decided is not None:
            commit_batch, record = decided
            self._reply_outcome(waiting, txn_id, commit_batch, record.decision)
            return True
        local_batch = replica.local_decided.get(txn_id)
        if local_batch is not None:
            self._reply_outcome(waiting, txn_id, local_batch)
            return True
        if txn_id in self._waiting_clients:
            # Already admitted here and still in flight: answer the newest
            # request id when the outcome is known.
            self._waiting_clients[txn_id] = waiting
            return True
        group = replica.prepared_batches.group_of_txn(txn_id)
        if group is not None and group.records[txn_id].coordinator == self._partition:
            # Prepared by a predecessor leader of this same cluster and still
            # undecided: adopt the client and re-drive the vote collection.
            self._waiting_clients[txn_id] = waiting
            self.nudge_two_pc()
            return True
        return False

    # ------------------------------------------------------------------
    # 2PC: participant side
    # ------------------------------------------------------------------

    def on_coordinator_prepare(self, message: CoordinatorPrepare, src: NodeId) -> None:
        txn, replica = message.txn, self._replica
        if txn is None or not replica.is_leader:
            return
        if message.coordinator not in txn.partitions(self._partitioner):
            return  # names no cluster that could be coordinating this transaction
        if replica.recovery.in_progress:
            # State not authoritative yet; the coordinator's 2PC retry timer
            # re-sends the prepare.
            return
        group = replica.prepared_batches.group_of_txn(txn.txn_id)
        if group is not None or txn.txn_id in self._participating:
            # Duplicate from a retrying (or freshly elected) coordinator
            # leader whose predecessor lost our vote — admitted here, or
            # prepared under a previous leader of *this* cluster (the group
            # is replicated state): send the vote the written prepare stands
            # for rather than re-admit or stay silent forever.
            self._send_vote(txn.txn_id)
            return
        decided = self._replica.decided.get(txn.txn_id)
        if decided is not None:
            # Already decided and delivered here; the coordinator (or its
            # successor) evidently missed it — hand the record straight back.
            commit_batch, record = decided
            self._replica.send(
                self._leader_of(message.coordinator),
                DecisionMessage(record=record, commit_batch=commit_batch),
            )
            return
        # Verify the prepare really went through the coordinator cluster's consensus.
        if message.header is None or not message.header.verify(
            self._replica.verifier,
            self._replica.topology.members(message.coordinator),
            self._replica.config.certificate_size,
        ):
            return

        reason = self._refusal(txn, self._in_progress_index)
        if reason:
            self._count_abort(reason)
            self._replica.send(
                self._leader_of(message.coordinator),
                ParticipantPrepared(vote=self._abort_vote(txn.txn_id)),
            )
            return

        self._participating.add(txn.txn_id)
        self._obs_participant_admit(txn.txn_id, message)
        self._in_progress_index.add(txn)
        self._acquire_write_locks(txn)
        self._in_progress_prepared.append(
            PreparedRecord(txn=txn, coordinator=message.coordinator)
        )
        self._ensure_seal_scheduled()

    # ------------------------------------------------------------------
    # 2PC: coordinator side
    # ------------------------------------------------------------------

    def on_participant_prepared(self, message: ParticipantPrepared, src: NodeId) -> None:
        vote, replica = message.vote, self._replica
        if vote is None or not replica.is_leader:
            return
        votes = self._votes.get(vote.txn_id)
        group = replica.prepared_batches.group_of_txn(vote.txn_id)
        if votes is None or group is None or vote.txn_id in group.decisions:
            return
        if vote.partition not in self._participants(group.records[vote.txn_id].txn):
            return
        members = replica.topology.members(vote.partition)
        if vote.vote:
            # A positive vote must prove the prepare went through the
            # participant cluster's consensus.
            valid = vote.header is not None and vote.header.verify(
                replica.verifier, members, replica.config.certificate_size
            )
        else:
            # A negative one must be attributable to the cluster it names:
            # the structural half of what every validator demands of an abort
            # record (``_validate_commit_record``), or sealing it gets this
            # leader voted out over a forgery anyone could have sent it.
            valid = vote.signature is not None and vote.signature.signer in map(str, members)
        if not valid:
            # An unverifiable vote is *no* vote: this coordinator cannot
            # sign a negative vote on the participant's behalf (abort
            # records require the voting cluster's signature), so it
            # waits and re-solicits through the 2PC retry timer instead
            # of fabricating an abort it could never justify.
            return
        votes[vote.partition] = vote
        self._maybe_decide(vote.txn_id, group)

    def _maybe_decide(self, txn_id: str, group: PrepareGroup) -> None:
        """Record the decision once every participant's vote is in."""
        if txn_id in group.decisions:
            return
        votes = self._votes[txn_id]
        txn = group.records[txn_id].txn
        if not votes.keys() >= set(self._participants(txn)):
            return
        own_vote = self._own_vote(txn_id, group)
        if own_vote is None:
            return
        record = CommitRecord(
            txn=txn,
            coordinator=self._partition,
            decision=all(vote.vote for vote in votes.values()),
            prepare_batch=group.batch_number,
            votes={**votes, self._partition: own_vote},
        )
        self._replica.prepared_batches.record_decision(record)
        self._ensure_seal_scheduled()

    def on_decision(self, message: DecisionMessage, src: NodeId) -> None:
        record, replica = message.record, self._replica
        if record is None or not replica.is_leader:
            return
        group = replica.prepared_batches.group_of_txn(record.txn.txn_id)
        if group is None:
            return  # we never prepared it (e.g. we voted no), nothing to do
        if record.txn.txn_id in group.decisions:
            return  # duplicate decision
        self._replica.prepared_batches.record_decision(record)
        self._participating.discard(record.txn.txn_id)
        self._ensure_seal_scheduled()

    # ------------------------------------------------------------------
    # 2PC resumption and retry (repro.recovery PR 3)
    # ------------------------------------------------------------------

    def nudge_two_pc(self) -> None:
        """External hint (DecisionQuery for an undecided txn) to re-drive 2PC."""
        self._ensure_twopc_timer()

    def _ensure_twopc_timer(self) -> None:
        replica = self._replica
        if not replica.is_leader or self._twopc_timer is not None:
            return
        if not replica.prepared_batches.has_undecided():
            return
        self._twopc_timer = replica.schedule(_TWO_PC_RETRY_MS, self._on_twopc_timer)

    def _on_twopc_timer(self) -> None:
        self._twopc_timer = None
        replica = self._replica
        if (
            not replica.is_leader
            or replica.crashed
            or replica.leader_role is not self
            or replica.recovery.in_progress
        ):
            return
        retriable = False
        for txn_id, record in list(replica.prepared_batches.pending_transactions()):
            attempts = self._twopc_attempts.get(txn_id, 0)
            if attempts >= _TWO_PC_MAX_RETRIES:
                continue  # stranded past the budget; DecisionQuery may still land
            self._twopc_attempts[txn_id] = attempts + 1
            retriable = True
            replica.counters.two_pc_retries += 1
            if record.coordinator == self._partition:
                self._redrive_coordinated(txn_id, record)
            else:
                self._redrive_participated(txn_id, record)
        if retriable:
            self._ensure_twopc_timer()

    def _redrive_coordinated(
        self, txn_id: str, record: PreparedRecord, first: bool = False
    ) -> None:
        """Coordinator side: send the written prepare to every participant yet to vote.

        The one path for a 2PC prepare, whether this leader just delivered
        the batch that wrote it (``first``), is re-soliciting votes it is
        still missing, or was elected after its predecessor crashed: the
        message is built from the replicated prepare group and the retained
        certified header of the prepare batch, never from leader memory
        (participants answer duplicates by re-sending their vote).
        """
        group = self._replica.prepared_batches.group_of_txn(txn_id)
        if group is None:
            return
        own_vote = self._own_vote(txn_id, group)
        if own_vote is None:
            # The coordinator-side vote's proof is the prepare batch's
            # certified header, and it is gone.  Checkpoint GC pins
            # headers of undecided prepare batches past the retention
            # window and the checkpoint image carries them across
            # restores, so an honest replica never lands here; report it
            # loudly — the participants' own DecisionQuery path remains
            # their only way out.
            if txn_id not in self.unresumable:
                self.unresumable[txn_id] = (
                    f"prepare batch {group.batch_number} header not retained "
                    f"(pruned past the retention window and absent from the "
                    f"checkpoint image); coordination cannot be resumed"
                )
                self._replica.counters.two_pc_unresumable += 1
            return
        votes = self._votes.setdefault(txn_id, {})
        for participant in self._participants(record.txn):
            if participant in votes:
                continue
            prepare = CoordinatorPrepare(
                txn=record.txn,
                coordinator=self._partition,
                prepare_batch=group.batch_number,
                header=own_vote.header,
            )
            if first:
                # Only the first solicitation joins the transaction's trace;
                # a re-sent prepare is untraced protocol traffic.
                self._obs_stamp(txn_id, prepare)
            self._replica.send(self._leader_of(participant), prepare)
        self._maybe_decide(txn_id, group)

    def _redrive_participated(self, txn_id: str, record: PreparedRecord) -> None:
        """Participant side: re-send our vote and ask anyone for the decision.

        The vote covers the case of a coordinator leader that lost its vote
        collection; the ``DecisionQuery`` broadcast covers the case of a
        decision that was certified (it is in the coordinator cluster's log)
        but whose broadcast died with the coordinator's leader — any replica
        that delivered the commit record answers.
        """
        replica = self._replica
        self._send_vote(txn_id)
        for member in replica.topology.members(record.coordinator):
            replica.send(
                member, DecisionQuery(txn_id=txn_id, partition=record.coordinator)
            )

    def _send_vote(self, txn_id: str) -> None:
        """Participant side: send this cluster's vote, first time or again.

        Nothing is sent until the prepare is written (the vote follows its
        delivery) or when its header is gone (pruned past retention; the
        coordinator must query decisions).
        """
        group = self._replica.prepared_batches.group_of_txn(txn_id)
        vote = self._own_vote(txn_id, group) if group is not None else None
        if vote is None:
            return
        prepared = ParticipantPrepared(vote=vote, header=vote.header)
        self._obs_stamp(txn_id, prepared)
        self._obs_ctx.pop(txn_id, None)
        self._replica.send(self._leader_of(group.records[txn_id].coordinator), prepared)

    # ------------------------------------------------------------------
    # batch sealing
    # ------------------------------------------------------------------

    def propose_genesis(self) -> None:
        """Write the bootstrap batch (number 0) certifying the preloaded state.

        The genesis batch carries no transactions — only the read-only
        segment with the Merkle root of the initial data, an empty CD vector
        and LCE = -1 — so that read-only clients have a certified header to
        verify against from the very first request.
        """
        replica = self._replica
        if not replica.is_leader or self._consensus_in_flight or replica.log.next_seq != 0:
            return
        self._propose(Batch(partition=self._partition, number=0))

    def _propose(self, batch: Batch) -> None:
        """Seal ``batch`` with the read-only segment its validators derive; propose it."""
        replica = self._replica
        cd_vector, lce, updates = replica.derive_read_only(batch)
        segment = ReadOnlySegment(
            cd_vector=cd_vector,
            lce=lce,
            merkle_root=replica.merkle.preview_root(updates),
            timestamp_ms=replica.now,
        )
        self._consensus_in_flight = True
        replica.engine.propose(dataclasses.replace(batch, read_only=segment))

    def has_sealable_work(self) -> bool:
        if self.in_progress_size() > 0:
            return True
        return bool(self._replica.prepared_batches.ready_prefix())

    def _ensure_seal_scheduled(self) -> None:
        if not self._replica.is_leader:
            return
        batch_config = self._replica.config.batch
        if not self._consensus_in_flight and self.in_progress_size() >= batch_config.max_size:
            self._seal_batch()
            return
        if self._seal_timer is None and self.has_sealable_work():
            self._seal_timer = self._replica.schedule(batch_config.timeout_ms, self._on_seal_timer)

    def _on_seal_timer(self) -> None:
        self._seal_timer = None
        if not self._replica.is_leader or self._replica.leader_role is not self:
            return
        if self._consensus_in_flight:
            # Delivery of the in-flight batch re-arms sealing.
            return
        if self.has_sealable_work():
            self._seal_batch()

    def _seal_batch(self) -> None:
        replica = self._replica
        if self._consensus_in_flight or not replica.is_leader or replica.crashed:
            return
        if replica.leader_role is not self:
            return  # a crash-reset replaced this role; stale timers must not seal

        # Re-validate admitted transactions against the current state: batches
        # delivered since admission may have introduced conflicts.
        local_txns: List[TxnPayload] = []
        prepared_records: List[PreparedRecord] = []
        accepted_index = KeyConflictIndex(self._partition, self._partitioner)
        for txn in self._in_progress_local:
            reason = self._refusal(txn, accepted_index)
            if not reason:
                local_txns.append(txn)
                accepted_index.add(txn)
                self._obs_seal(txn.txn_id)
            else:
                self._release_write_locks(txn.txn_id)
                waiting = self._waiting_clients.pop(txn.txn_id, None)
                if waiting is not None:
                    self._reply_abort(txn, waiting, reason)
        for record in self._in_progress_prepared:
            reason = self._refusal(record.txn, accepted_index)
            if not reason:
                prepared_records.append(record)
                accepted_index.add(record.txn)
                self._obs_seal(record.txn.txn_id)
            else:
                self._drop_prepared_record(record, reason)
        self._in_progress_local = []
        self._in_progress_prepared = []
        self._in_progress_index.clear()

        # Committed segment: the ready prefix of prepare groups (Definition 4.1).
        committed_records = [
            record
            for group in replica.prepared_batches.ready_prefix()
            for record in group.ordered_decisions()
        ]
        batch = Batch(
            partition=self._partition,
            number=replica.log.next_seq,
            local_txns=tuple(local_txns),
            prepared=tuple(prepared_records),
            committed=tuple(committed_records),
        )
        if batch.size() == 0:
            return

        # Sealing occupies the leader for a cost proportional to the batch.
        costs = replica.config.costs
        replica.occupy(costs.batch_base_ms + batch.size() * (costs.hash_ms + costs.conflict_check_ms))
        replica.obs_event(
            "batch-sealed", "debug", batch=batch.number, local=len(local_txns),
            prepared=len(prepared_records), committed=len(committed_records),
        )
        self._propose(batch)

    def _drop_prepared_record(self, record: PreparedRecord, reason: str) -> None:
        """A prepared record turned invalid at seal time; undo its bookkeeping."""
        txn_id = record.txn.txn_id
        self._release_write_locks(txn_id)
        if record.coordinator == self._partition:
            self._votes.pop(txn_id, None)
            waiting = self._waiting_clients.pop(txn_id, None)
            if waiting is not None:
                self._reply_abort(record.txn, waiting, reason)
        else:
            self._participating.discard(txn_id)
            prepared = ParticipantPrepared(vote=self._abort_vote(txn_id))
            self._obs_stamp(txn_id, prepared)
            self._obs_ctx.pop(txn_id, None)
            self._replica.send(self._leader_of(record.coordinator), prepared)
            self._count_abort(reason)

    # ------------------------------------------------------------------
    # post-delivery actions
    # ------------------------------------------------------------------

    def on_recovery_complete(self) -> None:
        """Unwedge a proposal that catch-up state transfer superseded.

        A leader elected by a view change while it was behind can propose
        its in-flight batch at a sequence the cluster already decided with
        a *different* batch.  Catch-up state transfer fast-forwards the
        engine past that sequence and compacts the proposal's instance
        record, so :meth:`on_batch_delivered` never fires for it — without
        this reset the leader would never seal again (every later commit,
        including post-quiescence probes, would starve behind the phantom
        in-flight batch).  The dropped batch's clients time out and settle
        through unknown-outcome resolution, exactly as for a deposed
        leader's in-progress batch.
        """
        if not self._consensus_in_flight:
            return
        if self._replica.engine.has_pending_work():
            return  # the proposal is still live in the current view
        self._consensus_in_flight = False
        self._ensure_seal_scheduled()

    def on_batch_delivered(self, seq: BatchNumber, batch: Batch, header: CertifiedHeader) -> None:
        self._consensus_in_flight = False
        if not self._replica.is_leader:
            return

        # Local transactions are now committed: tell their clients.
        for txn in batch.local_txns:
            self._release_write_locks(txn.txn_id)
            waiting = self._waiting_clients.pop(txn.txn_id, None)
            if waiting is not None:
                self._reply_outcome(waiting, txn.txn_id, seq)

        # Newly prepared distributed transactions: drive the next 2PC step.
        # Only for prepares admitted here, as ever: one a predecessor sealed
        # waits for the 2PC retry timer like every other resumed coordination.
        for record in batch.prepared:
            txn_id = record.txn.txn_id
            if record.coordinator != self._partition:
                if txn_id in self._participating:
                    self._send_vote(txn_id)
            elif txn_id in self._votes:
                self._redrive_coordinated(txn_id, record, first=True)

        # Commit records written in this batch: inform participants and clients.
        for record in batch.committed:
            self._release_write_locks(record.txn.txn_id)
            self._twopc_attempts.pop(record.txn.txn_id, None)
            if record.coordinator == self._partition:
                self._after_decision_written(record, seq, header)

        self._ensure_seal_scheduled()
        # Prepared-but-undecided work now exists (or persists): make sure the
        # retry timer will notice if its decisions stop arriving.
        self._ensure_twopc_timer()

    def _after_decision_written(
        self, record: CommitRecord, seq: BatchNumber, header: CertifiedHeader
    ) -> None:
        self._votes.pop(record.txn.txn_id, None)
        for participant in self._participants(record.txn):
            decision = DecisionMessage(record=record, commit_batch=seq, header=header)
            self._obs_stamp(record.txn.txn_id, decision)
            self._replica.send(self._leader_of(participant), decision)
        waiting = self._waiting_clients.pop(record.txn.txn_id, None)
        if waiting is not None:
            self._reply_outcome(waiting, record.txn.txn_id, seq, record.decision)

    # ------------------------------------------------------------------
    # view changes
    # ------------------------------------------------------------------

    def on_view_change(self, new_view: int, new_leader: ReplicaId) -> None:
        """React to a leader change in this cluster.

        The in-progress batch of a deposed leader is dropped (its clients will
        time out and retry); a newly elected leader starts with an empty
        in-progress batch, resumes sealing from its delivered prefix, and
        *resumes unfinished 2PC*: the replicated prepare groups tell it which
        distributed transactions its predecessor left undecided, and it
        immediately re-solicits the missing votes / re-sends its own (the
        vote collection itself is leader-volatile by design).  A demoted
        leader drops its stale coordination state wholesale — votes sent to
        it land on the new leader instead.
        """
        self._consensus_in_flight = False
        if self._seal_timer is not None:
            self._seal_timer.cancel()
            self._seal_timer = None
        if self._twopc_timer is not None:
            self._twopc_timer.cancel()
            self._twopc_timer = None
        self._twopc_attempts = {}
        # Leader-side spans die with the leadership: the successor answers
        # re-sent requests from its replicated state (its replies still
        # carry the original context, so the client-side trace completes).
        if self._obs_spans:
            tracer = self._replica.env.obs.tracer
            for span in self._obs_spans.values():
                tracer.finish(span, status="leader-changed")
            self._obs_spans.clear()
        self._obs_ctx.clear()
        if self._replica.node_id != new_leader:
            self._in_progress_local = []
            self._in_progress_prepared = []
            self._in_progress_index.clear()
            self._votes.clear()
            self._participating.clear()
        else:
            self._ensure_seal_scheduled()
            self._resume_pending_two_pc()

    def _resume_pending_two_pc(self) -> None:
        """Newly elected leader: immediately re-drive every undecided 2PC txn."""
        replica = self._replica
        for txn_id, record in list(replica.prepared_batches.pending_transactions()):
            if record.coordinator == self._partition:
                self._redrive_coordinated(txn_id, record)
            else:
                self._redrive_participated(txn_id, record)
        self._ensure_twopc_timer()
