"""Partition replica: the edge node holding one shard of the data.

Every replica of a cluster runs the same code: it participates in the
intra-cluster BFT ordering of batches, validates every proposed batch against
its own state (so a byzantine leader cannot commit conflicting transactions
or forge the read-only segment), applies delivered batches to its
multi-version store and Merkle tree, and serves reads — including the
single-node snapshot read-only protocol of Section 4.

The replica that is currently the view's leader additionally runs the
:class:`~repro.core.leader.LeaderRole`, which owns the in-progress batch and
drives 2PC across clusters.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.bft.engine import PbftEngine
from repro.bft.log import LogEntry, ReplicatedLog
from repro.bft.messages import BftMessage, CheckpointVote
from repro.bft.quorum import CommitCertificate
from repro.common.config import SystemConfig
from repro.common.ids import NO_BATCH, BatchNumber, ClientId, NodeId, PartitionId, ReplicaId
from repro.common.types import Key, Value
from repro.crypto.archive import MerkleTreeArchive
from repro.crypto.merkle import MerkleStore, MerkleTree
from repro.core.batch import Batch, CertifiedHeader, CommitRecord
from repro.core.cdvector import CDVector
from repro.core.leader import LeaderRole
from repro.core.messages import (
    CommitRequest,
    ComplaintProbe,
    ComplaintProbeAck,
    CoordinatorPrepare,
    DecisionMessage,
    DecisionQuery,
    DecisionReply,
    LeaderComplaint,
    LockReadReply,
    LockReadRequest,
    LockReleaseMessage,
    ParticipantPrepared,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadReply,
    ReadRequest,
    ReplicaCommitReply,
    SnapshotReply,
    SnapshotRequest,
    outcome,
)
from repro.core.occ import ConflictChecker, KeyConflictIndex
from repro.core.prepared import PreparedBatches
from repro.core.progress import Complaint, ProbeAck, ViewChange, ViewProgressMonitor
from repro.core.topology import ClusterTopology
from repro.recovery.checkpoint import CheckpointCertificate, CheckpointManager
from repro.recovery.messages import StateTransferReply, StateTransferRequest
from repro.recovery.snapshot import PartitionGenesis, SnapshotImage
from repro.recovery.transfer import RecoveryCoordinator
from repro.simnet.messages import Message
from repro.simnet.node import SimEnvironment, SimNode
from repro.storage.locks import LockMode, LockTable
from repro.storage.mvstore import MultiVersionStore
from repro.storage.partitioner import HashPartitioner


@dataclass
class ReplicaCounters:
    """Plain counters scraped by the benchmark harness."""

    batches_delivered: int = 0
    local_committed: int = 0
    distributed_committed: int = 0
    distributed_aborted: int = 0
    conflict_aborts: int = 0
    lock_interference_aborts: int = 0
    read_only_served: int = 0
    snapshot_requests_served: int = 0
    snapshot_fast_path: int = 0
    snapshot_rebuilds: int = 0
    validation_failures: int = 0
    checkpoints_taken: int = 0
    checkpoints_stable: int = 0
    log_entries_truncated: int = 0
    versions_pruned: int = 0
    state_transfers_served: int = 0
    state_transfers_rejected: int = 0
    recoveries_started: int = 0
    recoveries_completed: int = 0
    #: Recoveries the progress monitor triggered because the quorum had
    #: demonstrably moved past this replica (gap catch-up, not a restart).
    catchup_recoveries: int = 0
    views_adopted: int = 0
    view_changes: int = 0
    leader_suspicions: int = 0
    two_pc_retries: int = 0
    #: Coordinations reported unresumable because the prepare batch's header
    #: aged past the checkpoint retention window (see LeaderRole.unresumable).
    two_pc_unresumable: int = 0
    decision_queries_served: int = 0
    decisions_resolved_remotely: int = 0
    archive_records_compacted: int = 0
    headers_announced: int = 0
    #: ReplicaCommitReply messages sent to clients (f+1 commit-quorum path).
    replica_replies_sent: int = 0


#: The 2PC messages: the cost model charges them alike.
_TWO_PC = (CoordinatorPrepare, ParticipantPrepared, DecisionMessage, DecisionReply)

#: How far (simulated ms) a proposed batch's timestamp may drift from a
#: validating replica's clock: the leader's clock must be close to its own.
_ACCEPTANCE_WINDOW_MS = 30_000.0


class PartitionReplica(SimNode):
    """One member of one partition's cluster."""

    def __init__(
        self,
        node_id: ReplicaId,
        env: SimEnvironment,
        topology: ClusterTopology,
        partitioner: HashPartitioner,
        initial_data: Union[Mapping[Key, Value], PartitionGenesis, None] = None,
    ) -> None:
        """``initial_data`` is the partition's preloaded items, or the
        :class:`PartitionGenesis` a deployment built once for all members."""
        super().__init__(node_id, env)
        self.partition: PartitionId = node_id.partition
        self.config: SystemConfig = env.config
        self.topology = topology
        self.partitioner = partitioner
        self.counters = ReplicaCounters()

        self.locks = LockTable()  # only used by the Augustus baseline
        # Edge read-proxy tier (repro.edge): node ids the leader announces
        # freshly certified headers to (empty when the edge tier is off).
        self.edge_announce_targets: Tuple[NodeId, ...] = ()

        genesis = initial_data
        if not isinstance(genesis, PartitionGenesis):
            genesis = PartitionGenesis.build(self.partition, initial_data or {})
        self._start_volatile_state(genesis.data, genesis.tree.clone(), genesis.image)
        self.recovery = RecoveryCoordinator(self)

        self.register_handler(BftMessage, self._on_bft_message)
        self.register_handler(CheckpointVote, self._on_checkpoint_vote)
        self.register_handler(StateTransferRequest, self._on_state_transfer_request)
        self.register_handler(StateTransferReply, self._on_state_transfer_reply)
        self.register_handler(ReadRequest, self._on_read_request)
        self.register_handler(ReadOnlyRequest, self._on_read_only_request)
        self.register_handler(SnapshotRequest, self._on_snapshot_request)
        self.register_handler(LockReadRequest, self._on_lock_read_request)
        self.register_handler(LockReleaseMessage, self._on_lock_release)
        self.register_handler(CommitRequest, self._on_commit_request)
        self.register_handler(CoordinatorPrepare, self._on_coordinator_prepare)
        self.register_handler(ParticipantPrepared, self._on_participant_prepared)
        self.register_handler(DecisionMessage, self._on_decision)
        self.register_handler(DecisionQuery, self._on_decision_query)
        self.register_handler(DecisionReply, self._on_decision)
        self.register_handler(LeaderComplaint, self._on_leader_complaint)
        self.register_handler(ComplaintProbe, self._on_complaint_probe)
        self.register_handler(ComplaintProbeAck, self._on_complaint_probe_ack)

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.engine.is_leader

    @property
    def cluster_members(self) -> Tuple[ReplicaId, ...]:
        return self.topology.members(self.partition)

    def obs_event(self, kind: str, severity: str, **data: object) -> None:
        """One observability event from this replica, tagged with its partition."""
        self.env.obs.event(
            str(self.node_id), kind, severity, {"partition": int(self.partition), **data}
        )

    def conflict_checker(self) -> ConflictChecker:
        return ConflictChecker(self.partition, self.partitioner, self.store)

    def _make_merkle_store(self, tree: MerkleTree, base_batch: BatchNumber = NO_BATCH) -> MerkleStore:
        """Build the per-partition Merkle store over ``tree``, with its archive.

        Every store shares the deployment's delta memo, so the members of a
        cluster hash each batch's delta once between them.
        """
        archive = MerkleTreeArchive(max_batches=self.config.perf.archive_max_batches)
        return MerkleStore(tree, archive, base_batch=base_batch, deltas=self.env.merkle_deltas)

    def current_cd_vector(self) -> CDVector:
        if self.last_header is not None:
            return self.last_header.cd_vector
        return CDVector.initial(self.config.num_partitions)

    def current_lce(self) -> BatchNumber:
        if self.last_header is not None:
            return self.last_header.lce
        return NO_BATCH

    # ------------------------------------------------------------------
    # processing-cost model
    # ------------------------------------------------------------------

    def processing_cost_ms(self, message: Message) -> float:
        costs = self.config.costs
        if isinstance(message, BftMessage):
            proposal = getattr(message, "proposal", None)
            if isinstance(proposal, Batch):
                per_txn = costs.conflict_check_ms + costs.hash_ms
                return (
                    costs.batch_base_ms
                    + proposal.size() * per_txn
                    + costs.signature_verify_ms
                )
            return costs.signature_verify_ms
        if isinstance(message, ReadRequest):
            return costs.message_handling_ms + len(message.keys) * costs.read_op_ms
        # Merkle proof work scales with the tree depth, O(log K) in the
        # partition size, so simulated service time grows with state exactly
        # like the real data structure does.
        proof_ms = costs.merkle_proof_cost_ms(len(self.merkle))
        if isinstance(message, ReadOnlyRequest):
            per_key = costs.read_op_ms + proof_ms
            return costs.message_handling_ms + len(message.keys) * per_key + costs.signature_sign_ms
        if isinstance(message, SnapshotRequest):
            per_key = costs.read_op_ms + 2 * proof_ms
            base = costs.message_handling_ms + len(message.keys) * per_key
            # When the archive cannot resolve the historical tree the replica
            # materialises the snapshot and rebuilds an O(K) tree — charge
            # for it, so simulated throughput also reflects the archive fast
            # path (the wall-clock win the ``perf`` experiment measures).
            header = self._earliest_header_with_lce(message.required_prepare_batch)
            if header is not None and not self.merkle.archive_covers(header.number):
                base += costs.tree_rebuild_cost_ms(len(self.merkle))
            return base
        if isinstance(message, LockReadRequest):
            return costs.message_handling_ms + len(message.keys) * (costs.read_op_ms + costs.conflict_check_ms)
        if isinstance(message, CommitRequest) and message.txn is not None:
            ops = len(message.txn.reads) + len(message.txn.writes)
            return costs.message_handling_ms + ops * costs.conflict_check_ms
        if isinstance(message, _TWO_PC):
            return (
                costs.message_handling_ms
                + self.config.certificate_size * costs.signature_verify_ms
                + costs.conflict_check_ms
            )
        if isinstance(message, StateTransferReply):
            # Installing an image writes every item; replaying a batch costs
            # what delivering it would have.
            items = len(message.image) if message.image is not None else 0
            replayed = sum(
                entry.value.size()
                for entry in message.entries
                if isinstance(entry.value, Batch)
            )
            return (
                costs.message_handling_ms
                + items * costs.write_op_ms
                + len(message.entries) * costs.batch_base_ms
                + replayed * (costs.hash_ms + costs.conflict_check_ms)
            )
        return costs.message_handling_ms

    # ------------------------------------------------------------------
    # consensus application interface
    # ------------------------------------------------------------------

    def validate_proposal(self, seq: int, proposal: object) -> bool:
        ok = self._validate_batch(seq, proposal)
        if not ok:
            self.counters.validation_failures += 1
            self.obs_event("validation-failure", "warn", seq=seq)
        return ok

    def _validate_batch(self, seq: int, proposal: object) -> bool:
        if not isinstance(proposal, Batch):
            return False
        batch = proposal
        if batch.partition != self.partition or batch.number != seq:
            return False
        if batch.read_only is None:
            return False

        # Freshness window (Section 4.4.2).
        if abs(batch.read_only.timestamp_ms - self.now) > _ACCEPTANCE_WINDOW_MS:
            return False

        # Conflict rules (Definition 3.1) for every transaction the batch
        # admits, checked against this replica's own state.
        checker = self.conflict_checker()
        batch_index = KeyConflictIndex(self.partition, self.partitioner)
        indexes = (batch_index, self.prepared_batches.index)
        for txn in (*batch.local_txns, *(record.txn for record in batch.prepared)):
            if not checker.check(txn, indexes).ok:
                return False
            batch_index.add(txn)

        if not self._validate_committed_segment(batch):
            return False

        # Read-only segment: the leader sealed it with derive_read_only too.
        cd_vector, lce, updates = self.derive_read_only(batch)
        if (batch.read_only.cd_vector, batch.read_only.lce) != (cd_vector, lce):
            return False
        return batch.read_only.merkle_root == self.merkle.preview_root(updates)

    def _validate_committed_segment(self, batch: Batch) -> bool:
        """Check commit records respect the ordering constraint and carry valid votes."""
        group_numbers: List[BatchNumber] = []
        covered: Dict[BatchNumber, set] = {}
        for record in batch.committed:
            group = self.prepared_batches.group_of_txn(record.txn.txn_id)
            if group is None:
                return False
            if group.batch_number not in covered:
                group_numbers.append(group.batch_number)
                covered[group.batch_number] = set()
            covered[group.batch_number].add(record.txn.txn_id)
            if not self._validate_commit_record(record):
                return False
        if not group_numbers:
            return True
        # Groups must form a prefix of the replica's prepared-batches order
        # (Definition 4.1) and each group must be fully covered.
        referenced = sorted(covered)
        all_groups = self.prepared_batches.group_numbers()
        if all_groups[: len(referenced)] != referenced:
            return False
        for number, txn_ids in covered.items():
            if txn_ids != set(self.prepared_batches.group(number).records):
                return False
        return True

    def _validate_commit_record(self, record: CommitRecord) -> bool:
        accessed = record.txn.partitions(self.partitioner)
        if record.decision:
            positive = {
                partition
                for partition, vote in record.votes.items()
                if vote.vote
            }
            if not accessed <= positive:
                return False
            for partition, vote in record.votes.items():
                if not vote.vote:
                    return False
                if vote.header is None:
                    return False
                if vote.header.partition != partition:
                    return False
                if not vote.header.verify(
                    self.verifier,
                    self.topology.members(partition),
                    self.config.certificate_size,
                ):
                    return False
        else:
            negatives = [vote for vote in record.votes.values() if not vote.vote]
            if not negatives:
                return False
            # An abort must be justified by an *authentic* negative vote:
            # each one carries a signature by a member of the cluster it
            # claims voted no (see PreparedVote.abort_signing_payload),
            # which stops a byzantine coordinator from fabricating a
            # participant's refusal and unilaterally aborting a
            # fully-prepared transaction.
            for vote in negatives:
                if vote.partition not in accessed:
                    return False
                if vote.signature is None:
                    return False
                members = {
                    str(member)
                    for member in self.topology.members(vote.partition)
                }
                if vote.signature.signer not in members:
                    return False
                if not self.verifier.verify(
                    vote.abort_signing_payload(), vote.signature
                ):
                    return False
        return True

    def derive_read_only(self, batch: Batch) -> Tuple[CDVector, BatchNumber, Mapping[Key, Value]]:
        """``batch``'s CD vector (Algorithm 1), LCE and the writes it makes visible.

        The one derivation of a read-only segment: the leader seals a batch
        with it and every replica validates the proposal against it.  The LCE
        is the newest prepare group the committed segment retires.
        """
        cd = self.current_cd_vector().with_entry(self.partition, batch.number)
        lce = self.current_lce()
        for record in batch.committed:
            group = self.prepared_batches.group_of_txn(record.txn.txn_id)
            if group is not None:
                lce = max(lce, group.batch_number)
            if record.decision and record.reported_max is not None:
                cd = cd.pairwise_max(record.reported_max)
        # The self entry always reflects this batch.
        cd = cd.with_entry(self.partition, batch.number)
        return cd, lce, batch.visible_writes(self.partitioner)

    def deliver(self, seq: int, proposal: object, certificate: CommitCertificate) -> None:
        batch: Batch = proposal  # validated by validate_proposal
        header = self._apply_batch(seq, batch, certificate)
        self._send_replica_commit_replies(seq, batch)
        self.checkpoints.on_batch_delivered(seq)
        self._serve_deferred_snapshots()
        self.leader_role.on_batch_delivered(seq, batch, header)
        self._announce_header(header)
        self.progress_monitor.poke()

    def _send_replica_commit_replies(self, seq: int, batch: Batch) -> None:
        """Report this batch's client-visible outcomes directly to clients.

        Classic PBFT client replies: the leader's :class:`CommitReply` alone
        is a single point of failure (a leader crashing right after delivery
        strands its clients until timeout/failover), so every replica also
        reports each outcome it just applied.  Clients accept once ``f + 1``
        replicas of the coordinator cluster agree — see
        ``TransEdgeClient._on_replica_commit_reply``.  Live delivery only:
        state-transfer replay goes through :meth:`_apply_batch` directly and
        must not re-answer long-finished transactions.
        """
        network = self.env.network
        outcomes = [(txn, True) for txn in batch.local_txns]
        outcomes += [
            (record.txn, record.decision)
            for record in batch.committed
            if record.coordinator == self.partition
        ]
        for txn, committed in outcomes:
            # Unit harnesses apply batches whose clients are not simulated
            # nodes; outcomes for them have nowhere to go.
            if not network.knows(ClientId(txn.client)):
                continue
            self.counters.replica_replies_sent += 1
            self.send(
                ClientId(txn.client),
                ReplicaCommitReply(
                    txn_id=txn.txn_id, partition=self.partition, **outcome(committed, seq)
                ),
            )

    def _announce_header(self, header: CertifiedHeader) -> None:
        """Edge tier: the leader pushes fresh certified headers to the proxies.

        Announcements bound proxy staleness: a proxy that sees batch ``n``
        announced knows any cached context older than ``n`` minus the
        configured lag must be refreshed before it is served again.  Proxies
        verify the certificate before adopting, so a byzantine leader cannot
        poison their view of "newest" (and the announcement carries no data —
        values always come with proofs).
        """
        if not self.edge_announce_targets or not self.is_leader:
            return
        from repro.edge.messages import HeaderAnnouncement

        self.counters.headers_announced += 1
        self.broadcast(
            self.edge_announce_targets,
            HeaderAnnouncement(partition=self.partition, header=header),
        )

    def _apply_batch(
        self, seq: int, batch: Batch, certificate: CommitCertificate
    ) -> CertifiedHeader:
        """Fold a decided batch into this replica's state.

        Shared by live consensus delivery and state-transfer replay; only the
        leader-role and deferred-snapshot reactions differ between the two.
        """
        self.log.append(seq, batch, certificate)
        updates = batch.visible_writes(self.partitioner)
        if updates:
            self.store.apply(updates, batch=seq)
        self.merkle.apply(updates, batch=seq)

        # Track the new prepare group and retire committed ones.  Retired
        # decisions stay queryable in ``self.decided`` (DecisionQuery) until
        # the checkpoint retention window passes them by.
        self.prepared_batches.add_group(seq, list(batch.prepared))
        for txn in batch.local_txns:
            self.local_decided[txn.txn_id] = seq
        for record in batch.committed:
            self.decided[record.txn.txn_id] = (seq, record)
            group = self.prepared_batches.group_of_txn(record.txn.txn_id)
            if group is not None:
                self.prepared_batches.remove_group(group.batch_number)

        header = batch.certified_header(certificate)
        self.headers.append(header)
        self.last_header = header

        self.counters.batches_delivered += 1
        self.counters.local_committed += len(batch.local_txns)
        for record in batch.committed:
            # Count distributed outcomes only at their coordinator cluster so
            # that a transaction spanning k clusters is not counted k times.
            if record.coordinator != self.partition:
                continue
            if record.decision:
                self.counters.distributed_committed += 1
            else:
                self.counters.distributed_aborted += 1
        return header

    def on_view_change(self, new_view: int, new_leader: ReplicaId) -> None:
        self.counters.view_changes += 1
        self.obs_event("view-change", "warn", view=new_view, leader=str(new_leader))
        self.topology.set_leader(self.partition, new_leader)
        self.leader_role.on_view_change(new_view, new_leader)
        self.progress_monitor.step(ViewChange())

    # ------------------------------------------------------------------
    # crash recovery (see repro.recovery)
    # ------------------------------------------------------------------

    def reset_for_recovery(self, preserve_recovery: bool = False) -> None:
        """Discard all volatile state, as a crash would.

        The replica keeps its identity, network registration, key material
        and counters; the store, Merkle tree, SMR log, prepared bookkeeping,
        consensus engine and leader role all restart empty and are
        repopulated through state transfer.  The genesis snapshot survives
        (the preloaded dataset is durable, shipped with the node).
        ``preserve_recovery`` keeps the in-flight recovery coordinator so a
        mid-transfer wipe does not lose the recovery session itself.
        """
        self._start_volatile_state({}, MerkleTree({}), self.checkpoints.snapshots.genesis)
        if not preserve_recovery:
            self.recovery = RecoveryCoordinator(self)

    def _start_volatile_state(
        self, data: Mapping[Key, Value], tree: MerkleTree, genesis: SnapshotImage
    ) -> None:
        """Build everything a crash loses, over the items ``data`` (with their ``tree``).

        The one constructor of a replica's volatile state — ``__init__`` passes
        the preloaded dataset, :meth:`reset_for_recovery` nothing — so a fresh
        replica and a wiped one cannot differ in what they hold.
        """
        self.store = MultiVersionStore(data)
        self.merkle = self._make_merkle_store(tree)
        self.prepared_batches = PreparedBatches(KeyConflictIndex(self.partition, self.partitioner))
        self.log = ReplicatedLog()

        # Retained certified headers in batch order: numbers strictly and
        # LCEs weakly increase, so both lookups below are bisects.
        self.headers: List[CertifiedHeader] = []
        self.last_header: Optional[CertifiedHeader] = None
        self._deferred_snapshots: List[Tuple[SnapshotRequest, NodeId]] = []
        # Durable 2PC outcomes: every commit/abort record this replica has
        # delivered, keyed by transaction id (pruned with the checkpoint
        # retention window; recent entries also ride in checkpoint images).
        # Any replica holding the record can answer a ``DecisionQuery`` from
        # a participant stranded by a coordinator crash.
        self.decided: Dict[str, Tuple[BatchNumber, CommitRecord]] = {}
        # Local-transaction outcomes (txn id -> commit batch), kept for the
        # same retention window.  A client that proactively fails over to a
        # freshly elected leader re-sends its CommitRequest; this map lets
        # the new leader answer COMMITTED for a transaction its predecessor
        # already committed instead of re-admitting (and double-applying) it.
        self.local_decided: Dict[str, BatchNumber] = {}

        self.engine = PbftEngine(
            owner=self,
            partition=self.partition,
            members=self.topology.members(self.partition),
            application=self,
            # A byzantine leader's non-batch proposal digests to nothing (and
            # then fails validation) instead of raising out of the engine.
            digest_fn=lambda batch: batch.digest() if isinstance(batch, Batch) else b"",
        )
        self.leader_role = LeaderRole(self)
        self.checkpoints = CheckpointManager(self)
        self.checkpoints.bootstrap(genesis)
        # A fresh engine means fresh progress bookkeeping; a wiped replica's
        # old monitor notices the swap (stale callbacks check identity) and dies.
        self.progress_monitor = ViewProgressMonitor(self)

    def begin_recovery(self) -> None:
        """Start fetching the partition state from cluster peers."""
        self.obs_event("recovery-begin", "info")
        self.recovery.begin()

    def install_snapshot(
        self,
        image: SnapshotImage,
        certificate: Optional[CheckpointCertificate],
    ) -> None:
        """Replace this (empty) replica's state with a verified checkpoint image."""
        self.store.restore_image(image.store_image())
        self.merkle = self._make_merkle_store(MerkleTree(image.values()), base_batch=image.seq)
        self.log.reset_base(image.seq + 1)
        for number, records in image.prepared:
            self.prepared_batches.add_group(number, list(records))
        for commit_batch, record in image.decisions:
            self.decided[record.txn.txn_id] = (commit_batch, record)
        if image.header is not None:
            from repro.recovery.transfer import StateTransferError

            if self.merkle.root != image.header.merkle_root:
                raise StateTransferError(
                    "image values do not match the certified header's Merkle root"
                )
            # The carried prepare-batch headers are digest-excluded, so a
            # byzantine image source could have substituted them — each must
            # prove itself through its own consensus certificate before the
            # 2PC resumption machinery is allowed to trust it.
            members = self.topology.members(self.partition)
            restored = [image.header]
            for header in image.prepared_headers:
                if not header.verify(
                    self.verifier, members, self.config.certificate_size
                ):
                    raise StateTransferError(
                        f"carried prepare-batch header {header.number} fails "
                        f"certificate verification"
                    )
                if header.number < image.seq:  # else the checkpoint header covers it
                    restored.append(header)
            restored.sort(key=lambda h: h.number)
            self.headers = restored
            self.last_header = image.header
        self.engine.install_checkpoint(image.seq)
        if certificate is not None:
            self.checkpoints.adopt(image, certificate)

    def apply_recovered_entry(self, entry: LogEntry) -> None:
        """Replay one verified log entry fetched through state transfer."""
        from repro.recovery.transfer import StateTransferError

        batch: Batch = entry.value
        self._apply_batch(entry.seq, batch, entry.certificate)
        if self.merkle.root != batch.read_only.merkle_root:
            raise StateTransferError(
                f"replaying batch {entry.seq} diverged from its certified Merkle root"
            )
        self.checkpoints.on_batch_delivered(entry.seq)
        self._serve_deferred_snapshots()

    # ------------------------------------------------------------------
    # client-facing handlers
    # ------------------------------------------------------------------

    def _on_bft_message(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, BftMessage)
        self.engine.handle(message, src)
        # Consensus traffic both creates and resolves progress evidence
        # (a vote for an unseen instance arms the monitor; a delivery or a
        # view change resets it).
        self.progress_monitor.poke()

    def _on_checkpoint_vote(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, CheckpointVote)
        self.checkpoints.on_vote(message, src)

    def _on_state_transfer_request(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, StateTransferRequest)
        if message.partition != self.partition:
            return
        self.counters.state_transfers_served += 1
        image = None
        certificate = None
        start = message.have_seq + 1
        stable = self.checkpoints.stable_image
        if stable is not None and self.checkpoints.stable_seq > message.have_seq:
            image = stable
            certificate = self.checkpoints.stable_certificate
            start = stable.seq + 1
        elif message.have_seq < self.log.first_seq:
            # Nothing stable yet but the requester is behind our first entry:
            # base the transfer on the (uncertified) genesis image, which the
            # requester validates by replaying batch 0's certified root.
            image = self.checkpoints.snapshots.genesis
            start = 0
        self.send(
            src,
            StateTransferReply(
                partition=self.partition,
                image=image,
                certificate=certificate,
                entries=self.log.entries_from(start),
                # Current view plus the quorum certificate that elected it, so
                # the rejoiner can follow the live leader immediately.
                view=self.engine.view,
                view_certificate=self.engine.view_certificate,
                responder_tip=self.log.last_seq,
            ),
        )

    def _on_state_transfer_reply(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, StateTransferReply)
        self.recovery.on_reply(message, src)

    def _on_read_request(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, ReadRequest)
        values, versions, _ = self._collect_reads(message.keys, (), as_of=None)
        self.send(
            src,
            ReadReply(
                request_id=message.request_id,
                values=values,
                versions=versions,
                partition=self.partition,
            ),
        )

    def _on_read_only_request(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, ReadOnlyRequest)
        self.counters.read_only_served += 1
        values, versions, proofs = self._collect_reads(
            message.keys, self.merkle.tree, as_of=None
        )
        self.send(
            src,
            ReadOnlyReply(
                request_id=message.request_id,
                partition=self.partition,
                values=values,
                versions=versions,
                proofs=proofs,
                header=self.last_header,
            ),
        )

    def _on_snapshot_request(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, SnapshotRequest)
        header = self._earliest_header_with_lce(message.required_prepare_batch)
        if header is None:
            # The required dependency has not committed locally yet; park the
            # request and answer as soon as the batch is delivered.
            self._deferred_snapshots.append((message, src))
            return
        self._answer_snapshot(message, src, header)

    def _answer_snapshot(self, message: SnapshotRequest, src: NodeId, header: CertifiedHeader) -> None:
        # Fast path: the archive resolves the tree of any recent batch as a
        # copy-on-write view, so serving the request costs O(read · log K)
        # instead of materialising the partition and rebuilding an O(K) tree.
        tree = self.merkle.tree_at(header.number)
        if tree is not None:
            self.counters.snapshot_fast_path += 1
        else:
            # Past the archive window: rebuild this header's tree rather
            # than serve a different snapshot.  Only the *earliest*
            # dependency-satisfying header is covered by the two-round
            # consistency argument (Theorem 4.6); substituting a newer one
            # could carry fresh cross-partition dependencies the client
            # never rechecks.
            tree = MerkleTree(self.store.snapshot_as_of(header.number))
            self.counters.snapshot_rebuilds += 1
        self.counters.snapshot_requests_served += 1
        values, versions, proofs = self._collect_reads(
            message.keys, tree, as_of=header.number
        )
        self.send(
            src,
            SnapshotReply(
                request_id=message.request_id,
                partition=self.partition,
                values=values,
                versions=versions,
                proofs=proofs,
                header=header,
            ),
        )

    def _earliest_header_with_lce(self, required: BatchNumber) -> Optional[CertifiedHeader]:
        # LCEs are non-decreasing, so the earliest satisfying header is found
        # by bisection instead of a linear scan over the retained headers.
        index = bisect.bisect_left(self.headers, required, key=lambda h: h.lce)
        if index >= len(self.headers):
            return None
        return self.headers[index]

    def prune_headers_below(self, retain_from: BatchNumber) -> None:
        """Checkpoint GC: drop certified headers below the retention window.

        Headers of still-undecided prepare batches are pinned past the
        window: a cluster's 2PC vote is derived from exactly that header
        (see ``LeaderRole._own_vote``), and they are what
        ``SnapshotImage.capture`` carries so a restored successor can do the
        same.
        """
        pinned = set(self.prepared_batches.group_numbers())
        self.headers = [
            h for h in self.headers if h.number >= retain_from or h.number in pinned
        ]

    def prune_decisions_below(self, retain_from: BatchNumber) -> None:
        """Checkpoint GC: forget 2PC decisions committed below the window."""
        self.decided = {
            txn_id: (commit_batch, record)
            for txn_id, (commit_batch, record) in self.decided.items()
            if commit_batch >= retain_from
        }
        self.local_decided = {
            txn_id: commit_batch
            for txn_id, commit_batch in self.local_decided.items()
            if commit_batch >= retain_from
        }

    def requestable_header_batches(self) -> "set[BatchNumber]":
        """Batches a round-2 snapshot request can still name.

        ``_earliest_header_with_lce`` bisects for the *first* retained header
        whose LCE reaches the requirement, so only the earliest header of
        each LCE run (plus the retention floor itself) is ever returned; the
        archive uses this set to compact everything else.
        """
        requestable: "set[BatchNumber]" = set()
        previous_lce: Optional[BatchNumber] = None
        for header in self.headers:
            if previous_lce is None or header.lce > previous_lce:
                requestable.add(header.number)
            previous_lce = header.lce
        return requestable

    def header_at(self, number: BatchNumber) -> Optional[CertifiedHeader]:
        """The retained certified header of batch ``number`` (None if pruned).

        Headers are appended in batch order, so this is a bisect; the leader
        role derives 2PC votes from it (the vote's proof is the header of the
        batch that wrote the prepare).
        """
        index = bisect.bisect_left(self.headers, number, key=lambda h: h.number)
        if index < len(self.headers) and self.headers[index].number == number:
            return self.headers[index]
        return None

    def _serve_deferred_snapshots(self) -> None:
        if not self._deferred_snapshots:
            return
        still_waiting: List[Tuple[SnapshotRequest, NodeId]] = []
        for message, src in self._deferred_snapshots:
            header = self._earliest_header_with_lce(message.required_prepare_batch)
            if header is None:
                still_waiting.append((message, src))
            else:
                self._answer_snapshot(message, src, header)
        self._deferred_snapshots = still_waiting

    def _collect_reads(self, keys, tree, as_of: Optional[BatchNumber]):
        """Values, versions and proofs for ``keys`` against one tree.

        ``tree`` is anything with ``__contains__``/``prove`` — the live
        :class:`MerkleTree`, an archived
        :class:`~repro.crypto.archive.HistoricalTreeView`, a rebuilt
        historical tree, or ``()`` for a plain read that wants no proofs.
        ``as_of`` bounds the store lookup to the tree's batch (None reads
        the latest version).
        """
        values: Dict[Key, Value] = {}
        versions: Dict[Key, BatchNumber] = {}
        proofs = {}
        for key in keys:
            versioned = (
                self.store.get(key) if as_of is None else self.store.as_of(key, as_of)
            )
            if versioned is None:
                continue
            values[key] = versioned.value
            versions[key] = versioned.version
            if key in tree:
                proofs[key] = tree.prove(key)
        return values, versions, proofs

    # ------------------------------------------------------------------
    # Augustus baseline handlers (quorum shared-lock reads)
    # ------------------------------------------------------------------

    def _on_lock_read_request(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, LockReadRequest)
        local_keys = [key for key in message.keys if key in self.store]
        granted = self.locks.try_acquire(message.txn_id, local_keys, LockMode.SHARED)
        values, versions, _ = self._collect_reads(local_keys if granted else (), (), as_of=None)
        self.send(
            src,
            LockReadReply(
                request_id=message.request_id,
                partition=self.partition,
                granted=granted,
                values=values,
                versions=versions,
            ),
        )

    def _on_lock_release(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, LockReleaseMessage)
        self.locks.release_all(message.txn_id)

    # ------------------------------------------------------------------
    # leader-only handlers (delegated to the leader role)
    # ------------------------------------------------------------------

    def _on_commit_request(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, CommitRequest)
        self.leader_role.on_commit_request(message, src)

    def _on_coordinator_prepare(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, CoordinatorPrepare)
        self.leader_role.on_coordinator_prepare(message, src)

    def _on_participant_prepared(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, ParticipantPrepared)
        self.leader_role.on_participant_prepared(message, src)

    def _on_decision(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, (DecisionMessage, DecisionReply))
        self.leader_role.on_decision(message, src)
        if isinstance(message, DecisionMessage):
            self.progress_monitor.poke()  # a reply pokes once the leader takes its record

    # ------------------------------------------------------------------
    # decision resolution and leader-failure evidence (repro.recovery PR 3)
    # ------------------------------------------------------------------

    def _on_decision_query(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, DecisionQuery)
        if message.partition != self.partition:
            return
        entry = self.decided.get(message.txn_id)
        if entry is None:
            # Not decided here (yet).  If this replica is the cluster's
            # current leader and still coordinates the transaction, the query
            # doubles as a nudge to re-drive the vote collection.
            self.leader_role.nudge_two_pc()
            return
        commit_batch, record = entry
        self.counters.decision_queries_served += 1
        self.send(src, DecisionReply(record=record, commit_batch=commit_batch))

    def _on_leader_complaint(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, LeaderComplaint)
        if message.partition != self.partition or self.is_leader:
            return
        txn = message.txn
        if txn is None:
            # Evidence-free complaint: nothing to corroborate, nothing to do.
            self.obs_event("complaint-dismissed", "info", reason="no forwarded request")
            return
        if txn.txn_id in self.decided or txn.txn_id in self.local_decided:
            # The cluster already answered this transaction; the complaint is
            # stale (or lying).  The client's retry gets the decided answer.
            self.obs_event("complaint-dismissed", "info", reason="already decided")
            return
        self.progress_monitor.step(Complaint(txn.txn_id))
        self.progress_monitor.poke()
        self.send(
            self.engine.current_leader,
            ComplaintProbe(partition=self.partition, txn=txn),
        )

    def _on_complaint_probe(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, ComplaintProbe)
        if message.partition != self.partition or not self.is_leader:
            return  # deposed (or never the leader): silence leaves the complaint standing
        txn = message.txn
        if txn is None:
            return
        self.send(
            src, ComplaintProbeAck(partition=self.partition, txn_id=txn.txn_id)
        )

    def _on_complaint_probe_ack(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, ComplaintProbeAck)
        if message.partition != self.partition:
            return
        if src != self.engine.current_leader:
            return  # only the leader under suspicion can clear its complaints
        self.progress_monitor.step(ProbeAck(message.txn_id))
