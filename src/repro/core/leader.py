"""Leader role: batch construction and 2PC-over-BFT coordination.

The replica currently acting as its cluster's leader runs this role.  It
owns the in-progress batch (Figure 2), admits transactions with the conflict
rules of Definition 3.1, seals batches (the committed segment, then the
read-only segment every validator re-derives) and proposes them to the
cluster's consensus, and drives the Two-Phase-Commit protocol with the
leaders of other clusters — every 2PC step is only communicated after the
batch recording it has been written to the SMR log, so a byzantine leader
cannot lie about a step it never persisted (Section 3.3).  The 2PC policy is
the pure :func:`~repro.core.twopc.twopc_step`; this role is its shell: it
keeps one :class:`~repro.core.twopc.TxnRecord` per transaction, builds each
input from the replicated prepare groups and runs the effects.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.common.ids import NO_BATCH, BatchNumber, NodeId, PartitionId, ReplicaId
from repro.common.types import TxnStatus
from repro.core import twopc
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
    DecisionReply,
    ParticipantPrepared,
    outcome,
)
from repro.core.occ import KeyConflictIndex
from repro.core.transaction import TxnPayload
from repro.storage.locks import LockMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.core.replica import PartitionReplica

#: Cadence (simulated ms) at which a leader re-drives unfinished 2PC work —
#: re-sending coordinator prepares for missing votes, participant votes, and
#: ``DecisionQuery`` (the attempt budget is ``twopc._TWO_PC_MAX_RETRIES``).
_TWO_PC_RETRY_MS = 40.0

#: Why a writer is refused for a read-only transaction's shared lock (Augustus).
LOCK_REFUSAL = "read-lock interference with a read-only transaction"


class LeaderRole:
    """Batch building and 2PC coordination for one partition's leader."""

    def __init__(self, replica: "PartitionReplica") -> None:
        self._replica = replica
        self._partition: PartitionId = replica.partition
        self._partitioner = replica.partitioner
        self._in_progress_local: List[TxnPayload] = []
        self._in_progress_prepared: List[PreparedRecord] = []
        self._in_progress_index = KeyConflictIndex(replica.partition, replica.partitioner)
        #: All the state a leader holds about transactions that is not in the
        #: SMR log, one record each (see :class:`~repro.core.twopc.TxnRecord`).
        #: Every other 2PC fact — this cluster's own vote, the participants,
        #: "decided" — is derived where it is used from the replicated
        #: prepare group and its certified header, so the leader that wrote
        #: a prepare and a successor resuming it run the same code.
        self._txns: Dict[str, twopc.TxnRecord] = {}
        self._consensus_in_flight = False
        self._seal_timer = None
        self._twopc_timer = None
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

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

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

    def _prepare(
        self, txn_id: str, decision: Optional[CommitRecord] = None
    ) -> Optional[twopc.Prepare]:
        """The replicated facts of ``txn_id``'s prepare: from the live group
        holding it (None if there is none) or, once written, its ``decision``."""
        if decision is None:
            group = self._replica.prepared_batches.group_of_txn(txn_id)
            if group is None:
                return None
            record, batch = group.records[txn_id], group.batch_number
            header, decided = self._replica.header_at(batch), txn_id in group.decisions
        else:
            record, batch, header, decided = decision, decision.prepare_batch, None, True
        # The other clusters the transaction touches: a coordinator's participants.
        others = tuple(sorted(record.txn.partitions(self._partitioner) - {self._partition}))
        return twopc.Prepare(
            record.txn, record.coordinator, batch, self._partition, others, header, decided
        )

    def _verdict(self, vote: PreparedVote) -> bool:
        """Does ``vote`` prove itself?

        A positive vote must prove the prepare went through the participant
        cluster's consensus.  A negative one must be attributable to the
        cluster it names: the structural half of what every validator demands
        of an abort record (``_validate_commit_record``), or sealing it gets
        this leader voted out over a forgery anyone could have sent it.
        """
        replica = self._replica
        members = replica.topology.members(vote.partition)
        if vote.vote:
            return vote.header is not None and vote.header.verify(
                replica.verifier, members, replica.config.certificate_size
            )
        return vote.signature is not None and vote.signature.signer in map(str, members)

    # ------------------------------------------------------------------
    # the shell around twopc_step
    # ------------------------------------------------------------------

    def _put(self, txn_id: str, record: twopc.TxnRecord) -> None:
        if record == twopc.IDLE:
            self._txns.pop(txn_id, None)
        else:
            self._txns[txn_id] = record

    def _step(self, txn_id: str, event: twopc.Input) -> tuple:
        """Step ``txn_id``'s record through ``event``, run the effects and return them."""
        before = self._txns.get(txn_id, twopc.IDLE)
        record, effects = twopc.twopc_step(before, event)
        if record is not before:
            self._put(txn_id, record)
        for effect in effects:
            self._run(txn_id, effect)
        return effects

    def _run(self, txn_id: str, effect: twopc.Effect) -> None:
        replica = self._replica
        if isinstance(effect, twopc.Send):
            effect.message.trace = effect.trace  # None: the current span's, as ever
            replica.send(self._leader_of(effect.to), effect.message)
        elif isinstance(effect, twopc.VoteNo):
            no = ParticipantPrepared(vote=self._abort_vote(txn_id), trace=effect.trace)
            replica.send(self._leader_of(effect.to), no)
            self._count_abort(effect.reason)
        elif isinstance(effect, twopc.Query):
            for member in replica.topology.members(effect.coordinator):
                replica.send(member, DecisionQuery(txn_id=txn_id, partition=effect.coordinator))
        elif isinstance(effect, twopc.RecordDecision):
            if effect.remote:
                replica.counters.decisions_resolved_remotely += 1
            replica.prepared_batches.record_decision(effect.record)
            self._ensure_seal_scheduled()
            if effect.remote:
                replica.progress_monitor.poke()
        elif isinstance(effect, twopc.Reply):
            self._reply(txn_id, effect.waiting, effect.batch, effect.committed, effect.refusal)
        elif isinstance(effect, twopc.Unresumable):
            # The coordinator-side vote's proof is the prepare batch's
            # certified header, and it is gone.  Checkpoint GC pins headers
            # of undecided prepare batches past the retention window and the
            # checkpoint image carries them across restores, so an honest
            # replica never lands here; report it loudly — the participants'
            # own DecisionQuery path remains their only way out.
            if txn_id not in self.unresumable:
                self.unresumable[txn_id] = (
                    f"prepare batch {effect.batch} header not retained "
                    f"(pruned past the retention window and absent from the "
                    f"checkpoint image); coordination cannot be resumed"
                )
                replica.counters.two_pc_unresumable += 1
        else:  # ArmRetry: the sweep that spent the attempt re-arms the timer
            replica.counters.two_pc_retries += 1

    # ------------------------------------------------------------------
    # client replies
    # ------------------------------------------------------------------

    def _reply(
        self, txn_id: str, waiting: twopc.Waiting, batch=NO_BATCH, committed=True, refusal=""
    ) -> None:
        """Answer a client: refused for ``refusal``, or from its transaction's
        replicated outcome.

        ``batch`` delivered the outcome: a local transaction (always
        committed) or a distributed one's commit record and its decision.
        """
        if refusal:
            self._count_abort(refusal)
            fields = {"status": TxnStatus.ABORTED, "abort_reason": refusal}
        else:
            fields = outcome(committed, batch)
        reply = CommitReply(request_id=waiting.request_id, txn_id=txn_id, **fields)
        self._send_commit_reply(waiting.client, reply)

    def _send_commit_reply(self, client: NodeId, reply: CommitReply) -> None:
        """Single exit point for every commit reply this leader sends.

        Closes the transaction's leader-side span (status mirrors the
        outcome) and stamps the reply so the client-side trace completes.
        The chaos bug ``drop-commit-replies`` patches this method.
        """
        record = self._txns.get(reply.txn_id)
        if record is not None and record.span is not None:
            span = record.span
            self._put(reply.txn_id, record._replace(span=None))
            status = "ok" if reply.status is TxnStatus.COMMITTED else "abort"
            self._replica.env.obs.tracer.finish(span, status=status)
            if reply.trace is None:
                reply.trace = span.context()
        data = {"txn": reply.txn_id, "client": str(client), "status": reply.status.name.lower()}
        self._replica.env.obs.event(str(self._replica.node_id), "commit-reply", "debug", data)
        self._replica.send(client, reply)

    # ------------------------------------------------------------------
    # client commit requests
    # ------------------------------------------------------------------

    def on_commit_request(self, message: CommitRequest, src: NodeId) -> None:
        txn = message.txn
        waiting = twopc.Waiting(client=src, request_id=message.request_id)
        if txn is None:
            return
        if not self._replica.is_leader:
            reason = "not the current leader of this partition"
        elif self._replica.recovery.in_progress:
            # Mid-state-transfer this replica's state is not authoritative;
            # admitting work now could propose against a stale prefix.  The
            # client retries (see POSITIONAL_REFUSALS).
            reason = "replica is recovering, retry later"
        elif self._answer_duplicate_commit_request(txn, waiting):
            return
        elif self._partition not in txn.partitions(self._partitioner):
            reason = "coordinator partition not accessed by transaction"
        else:
            reason = self._refusal(txn, self._in_progress_index)
        if reason:
            self._reply(txn.txn_id, waiting, refusal=reason)
            return

        accessed = txn.partitions(self._partitioner)
        span = self._open_span(message)
        self._step(txn.txn_id, twopc.Admitted(waiting, collect=len(accessed) > 1, span=span))
        self._in_progress_index.add(txn)
        self._acquire_write_locks(txn)
        if len(accessed) == 1:
            self._in_progress_local.append(txn)
        else:
            self._in_progress_prepared.append(
                PreparedRecord(txn=txn, coordinator=self._partition)
            )
        self._ensure_seal_scheduled()

    def _open_span(self, message: CommitRequest):
        """Open the leader-side span of a traced transaction being admitted.

        ``leader:batch-wait`` (phase ``queue``) covers admission until the
        batch seals, when :meth:`_seal_span` replaces it with
        ``leader:consensus``.  Consensus votes and 2PC bookkeeping are
        untraced protocol traffic, so these two spans are what attribute
        batching and ordering/2PC time to the transaction.
        """
        obs = self._replica.env.obs
        if not obs.tracing or message.trace is None:
            return None
        parent = self._replica._current_span
        parent_id = parent.span_id if parent is not None else message.trace.span_id
        return obs.tracer.span(
            message.trace.trace_id, parent_id, "leader:batch-wait", str(self._replica.node_id),
            "queue",
        )

    def _answer_duplicate_commit_request(self, txn: TxnPayload, waiting: twopc.Waiting) -> bool:
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
            self._reply(txn_id, waiting, commit_batch, record.decision)
            return True
        local_batch = replica.local_decided.get(txn_id)
        if local_batch is not None:
            self._reply(txn_id, waiting, local_batch)
            return True
        if self._txns.get(txn_id, twopc.IDLE).waiting is not None:
            # Already admitted here and still in flight: answer the newest
            # request id when the outcome is known.
            self._step(txn_id, twopc.Admitted(waiting))
            return True
        group = replica.prepared_batches.group_of_txn(txn_id)
        if group is not None and group.records[txn_id].coordinator == self._partition:
            # Prepared by a predecessor leader of this same cluster and still
            # undecided: adopt the client and re-drive the vote collection.
            self._step(txn_id, twopc.Admitted(waiting))
            self.nudge_two_pc()
            return True
        return False

    # ------------------------------------------------------------------
    # 2PC messages
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
        prepare = self._prepare(txn.txn_id)
        if prepare is not None or self._txns.get(txn.txn_id, twopc.IDLE).participating:
            # Duplicate from a retrying (or freshly elected) coordinator
            # leader whose predecessor lost our vote — admitted here, or
            # prepared under a previous leader of *this* cluster (the group
            # is replicated state): send the vote the written prepare stands
            # for rather than re-admit or stay silent forever.
            self._step(txn.txn_id, twopc.PrepareAgain(prepare))
            return
        decided = replica.decided.get(txn.txn_id)
        if decided is not None:
            # Already decided and delivered here; the coordinator (or its
            # successor) evidently missed it — hand the record straight back.
            commit_batch, record = decided
            decision = DecisionMessage(record=record, commit_batch=commit_batch)
            replica.send(self._leader_of(message.coordinator), decision)
            return
        # Verify the prepare really went through the coordinator cluster's consensus.
        if message.header is None or not message.header.verify(
            replica.verifier,
            replica.topology.members(message.coordinator),
            replica.config.certificate_size,
        ):
            return

        reason = self._refusal(txn, self._in_progress_index)
        if reason:
            self._step(txn.txn_id, twopc.Refused(reason, vote_to=message.coordinator))
            return

        trace = message.trace if replica.env.obs.tracing else None
        self._step(txn.txn_id, twopc.PrepareAdmitted(trace))  # the first vote carries it
        self._in_progress_index.add(txn)
        self._acquire_write_locks(txn)
        self._in_progress_prepared.append(
            PreparedRecord(txn=txn, coordinator=message.coordinator)
        )
        self._ensure_seal_scheduled()

    def on_participant_prepared(self, message: ParticipantPrepared, src: NodeId) -> None:
        vote = message.vote
        if vote is None or not self._replica.is_leader:
            return
        verdict = partial(self._verdict, vote)
        self._step(vote.txn_id, twopc.VoteReceived(vote, self._prepare(vote.txn_id), verdict))

    def on_decision(self, message: Union[DecisionMessage, DecisionReply], src: NodeId) -> None:
        """A decision from the coordinator's leader (``DecisionMessage``) or,
        answering a ``DecisionQuery``, from any replica that delivered it."""
        record, replica = message.record, self._replica
        if record is None or not replica.is_leader:
            return
        verdict = None
        if isinstance(message, DecisionReply):
            # The responder is a single (possibly byzantine) replica: accept the
            # record only on the same proof a committed-segment entry would need.
            verdict = partial(replica._validate_commit_record, record)
        txn_id = record.txn.txn_id
        self._step(txn_id, twopc.DecisionReceived(record, self._prepare(txn_id), verdict))

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
        if replica.prepared_batches.has_undecided():
                self._twopc_timer = replica.schedule(_TWO_PC_RETRY_MS, self._on_twopc_timer)

    def _acting(self) -> bool:
        """Leading, alive, and not replaced by a crash-reset: stale timers must not act."""
        replica = self._replica
        return replica.is_leader and not replica.crashed and replica.leader_role is self

    def _on_twopc_timer(self) -> None:
        self._twopc_timer = None
        if not self._acting() or self._replica.recovery.in_progress:
            return
        retried = False
        for txn_id, _ in list(self._replica.prepared_batches.pending_transactions()):
            retried |= twopc.ArmRetry() in self._step(txn_id, twopc.Retry(self._prepare(txn_id)))
        if retried:
            self._ensure_twopc_timer()

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
        if not self._acting():
            return
        if self._consensus_in_flight:
            # Delivery of the in-flight batch re-arms sealing.
            return
        if self.has_sealable_work():
            self._seal_batch()

    def _seal_span(self, txn_id: str) -> None:
        """The transaction entered a sealed batch: batch-wait → consensus."""
        record = self._txns.get(txn_id)
        if record is None or record.span is None:
            return
        span, tracer = record.span, self._replica.env.obs.tracer
        tracer.finish(span)
        consensus = tracer.span(
            span.trace_id, span.span_id, "leader:consensus", str(self._replica.node_id),
            "consensus",
        )
        self._txns[txn_id] = record._replace(span=consensus)

    def _seal_batch(self) -> None:
        replica = self._replica
        if self._consensus_in_flight or not self._acting():
            return  # also a role a crash-reset replaced: stale timers must not seal

        # Re-validate admitted transactions against the current state: batches
        # delivered since admission may have introduced conflicts.
        local_txns: List[TxnPayload] = []
        prepared_records: List[PreparedRecord] = []
        accepted_index = KeyConflictIndex(self._partition, self._partitioner)
        admitted = [(txn, None) for txn in self._in_progress_local]
        admitted += [(record.txn, record) for record in self._in_progress_prepared]
        for txn, record in admitted:
            reason = self._refusal(txn, accepted_index)
            if reason:
                self._release_write_locks(txn.txn_id)
                coordinator = None if record is None else record.coordinator
                vote_to = None if coordinator == self._partition else coordinator
                self._step(txn.txn_id, twopc.Refused(reason, vote_to))
                continue
            if record is None:
                local_txns.append(txn)
            else:
                prepared_records.append(record)
            accepted_index.add(txn)
            self._seal_span(txn.txn_id)
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
            self._step(txn.txn_id, twopc.Delivered(seq))

        # Newly prepared distributed transactions: drive the next 2PC step.
        for prepared in batch.prepared:
            txn_id = prepared.txn.txn_id
            self._step(txn_id, twopc.Delivered(seq, self._prepare(txn_id)))

        # Commit records written in this batch: inform participants and clients.
        for record in batch.committed:
            txn_id = record.txn.txn_id
            self._release_write_locks(txn_id)
            self._step(txn_id, twopc.Delivered(seq, self._prepare(txn_id, record), record, header))

        self._ensure_seal_scheduled()
        # Prepared-but-undecided work now exists (or persists): make sure the
        # retry timer will notice if its decisions stop arriving.
        self._ensure_twopc_timer()

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
        vote collection itself is leader-volatile by design).
        """
        self._consensus_in_flight = False
        if self._seal_timer is not None:
            self._seal_timer.cancel()
            self._seal_timer = None
        if self._twopc_timer is not None:
            self._twopc_timer.cancel()
            self._twopc_timer = None
        demoted = self._replica.node_id != new_leader
        for txn_id, record in list(self._txns.items()):
            if record.span is not None:
                # Leader-side spans die with the leadership: the successor
                # answers re-sent requests from its replicated state (its
                # replies still carry the original context, so the client-side
                # trace completes).
                self._replica.env.obs.tracer.finish(record.span, status="leader-changed")
                self._txns[txn_id] = record._replace(span=None)
            self._step(txn_id, twopc.ViewChange(demoted))
        if demoted:
            self._in_progress_local = []
            self._in_progress_prepared = []
            self._in_progress_index.clear()
            return
        self._ensure_seal_scheduled()
        # Newly elected: immediately re-drive every undecided 2PC transaction.
        for txn_id, _ in list(self._replica.prepared_batches.pending_transactions()):
            self._step(txn_id, twopc.Retry(self._prepare(txn_id), timer=False))
        self._ensure_twopc_timer()
