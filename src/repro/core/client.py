"""TransEdge client.

The client implements the interface of Section 2 of the paper: it builds a
transaction by reading from the accessed partitions and buffering writes,
then submits the whole object for commitment to a coordinator cluster; and it
runs the snapshot read-only protocol of Section 4 — one round against a
single node per partition, with an optional second round to satisfy missing
dependencies.

Workflows are written as generators (see :mod:`repro.simnet.proc`): a driver
process composes them with ``yield from``::

    def body():
        result = yield from client.read_write_txn(["a"], {"b": b"1"})
        snapshot = yield from client.read_only_txn(["a", "b"])

Besides the TransEdge protocols, the client also implements the two
baselines used in the paper's evaluation: running a read-only transaction as
a regular (2PC/BFT) transaction, and the Augustus-style quorum read with
shared locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.ids import (
    NO_BATCH,
    BatchNumber,
    ClientId,
    EdgeProxyId,
    PartitionId,
    ReplicaId,
    TxnIdGenerator,
)
from repro.common.types import CommitResult, Key, ReadOnlyResult, TxnStatus, Value
from repro.core.messages import (
    CommitReply,
    CommitRequest,
    LeaderComplaint,
    LockReadReply,
    LockReadRequest,
    LockReleaseMessage,
    ReadOnlyReply,
    ReadOnlyRequest,
    ReadReply,
    ReadRequest,
    ReplicaCommitReply,
    SnapshotReply,
    SnapshotRequest,
)
from repro.core.readonly import (
    PartitionSnapshot,
    assemble_result,
    find_unsatisfied_dependencies,
    verify_snapshot,
)
from repro.core.topology import ClusterTopology
from repro.core.transaction import TxnPayload
from repro.edge.messages import EdgeReadReply, EdgeReadRequest
from repro.edge.routing import EdgeRouter
from repro.simnet.latency import client_home_partition
from repro.simnet.messages import RequestMessage
from repro.simnet.node import SimEnvironment
from repro.simnet.proc import REFUSED, Call, Gather, ProcessNode, Sleep
from repro.storage.partitioner import HashPartitioner

#: Abort reasons that *place* a commit request (wrong node, node
#: mid-recovery) rather than decide the transaction.  They carry no
#: information about the outcome: an earlier attempt — or the failover
#: re-send of this very request — may already sit admitted at the real
#: leader, so treating one as a final abort can contradict a commit the
#: cluster goes on to certify.
POSITIONAL_REFUSALS = frozenset(
    {
        "not the current leader of this partition",
        "replica is recovering, retry later",
    }
)

#: A commit reply timeout is retried against the coordinator (which answers
#: duplicates from its decision log) instead of aborting outright: this many
#: attempts in all, sleeping ``attempt × backoff`` simulated ms between them.
COMMIT_RETRY_ATTEMPTS = 3
COMMIT_RETRY_BACKOFF_MS = 30.0

#: How long (simulated ms) a client waits for an edge proxy before falling
#: back to the core cluster.
EDGE_READ_TIMEOUT_MS = 20_000.0


@dataclass
class ClientStats:
    """Per-client counters, aggregated by the benchmark harness."""

    timeouts: int = 0
    read_only_completed: int = 0
    read_only_second_rounds: int = 0
    read_only_verification_failures: int = 0
    edge_reads_attempted: int = 0
    edge_reads_served: int = 0
    edge_relays: int = 0
    edge_fallbacks: int = 0
    edge_verification_failures: int = 0
    leader_failovers: int = 0
    commit_retries: int = 0
    #: Commits accepted from f+1 matching ReplicaCommitReply messages
    #: (instead of, or before, the leader's own CommitReply).
    replica_quorum_commits: int = 0


@dataclass
class _CommitQuorum:
    """The f+1 replica commit-reply quorum of one in-flight transaction.

    ``request_id`` is the current attempt's; ``votes`` holds the reporting
    replicas per (status, commit batch, abort reason); ``outcome`` is the one
    whose quorum completed, kept until the commit loop consumes it.
    """

    coordinator: PartitionId
    request_id: str = ""
    votes: Dict[Tuple[TxnStatus, BatchNumber, str], set] = field(default_factory=dict)
    outcome: Optional[Tuple[TxnStatus, BatchNumber, str]] = None


class TransEdgeClient(ProcessNode):
    """A client process attached to the simulated edge network."""

    #: Bound on snapshot dependency-repair rounds per read-only transaction.
    #: One round suffices except when a repair snapshot races a distributed
    #: commit whose other-partition half landed in a later batch; see
    #: ``read_only_txn``.
    MAX_REPAIR_ROUNDS = 3

    def __init__(
        self,
        name: str,
        env: SimEnvironment,
        topology: ClusterTopology,
        partitioner: HashPartitioner,
        request_timeout_ms: float = 60_000.0,
        commit_timeout_ms: float = 120_000.0,
        edge_proxies: Sequence[EdgeProxyId] = (),
    ) -> None:
        super().__init__(ClientId(name), env)
        self.name = name
        self.config: SystemConfig = env.config
        self.topology = topology
        self.partitioner = partitioner
        self.stats = ClientStats()
        self.home_partition: PartitionId = client_home_partition(
            ClientId(name), env.config.num_partitions
        )
        self._txn_ids = TxnIdGenerator(name)
        self._request_timeout_ms = request_timeout_ms
        self._commit_timeout_ms = commit_timeout_ms
        #: Edge read-proxy routing (None when the edge tier is disabled).
        self.edge_router: Optional[EdgeRouter] = None
        if edge_proxies and self.config.edge.enabled:
            self.edge_router = EdgeRouter(
                edge_proxies,
                home_partition=self.home_partition,
                num_partitions=self.config.num_partitions,
            )
        # Proactive leader failover: requests in flight towards a partition's
        # leader (an entry leaves when its wait settles), re-sent to the
        # successor the moment a view change lands in the topology (instead
        # of waiting out the request timeout).
        self._pending_leader_requests: Dict[str, Tuple[PartitionId, RequestMessage]] = {}
        topology.subscribe_leader_changes(self._on_leader_change)
        # f+1 replica commit-reply quorum (classic PBFT client acceptance).
        self._commit_quorums: Dict[str, _CommitQuorum] = {}
        self.register_handler(ReplicaCommitReply, self._on_replica_commit_reply)

    # ------------------------------------------------------------------
    # routing helpers
    # ------------------------------------------------------------------

    def _leader_of(self, partition: PartitionId) -> ReplicaId:
        return self.topology.leader(partition)

    def _leader_call(
        self,
        partition: PartitionId,
        request: RequestMessage,
        timeout_ms: Optional[float] = None,
    ) -> Call:
        """A :class:`Call` to ``partition``'s leader, tracked for failover."""
        self._pending_leader_requests[request.request_id] = (partition, request)
        return Call(self._leader_of(partition), request, timeout_ms=timeout_ms)

    def on_request_settled(self, request_id: str) -> None:
        self._pending_leader_requests.pop(request_id, None)

    def _on_leader_change(self, partition: PartitionId, leader: ReplicaId) -> None:
        """The cluster rotated: re-send pending requests to the new leader.

        Replies correlate by request id, so the first answer — old leader or
        new — resumes the waiting workflow and later duplicates are ignored.
        The new leader answers re-sent commit requests from its replicated
        decision records (see ``LeaderRole._answer_duplicate_commit_request``)
        rather than re-admitting them.
        """
        for target, request in list(self._pending_leader_requests.values()):
            if target == partition:
                self.stats.leader_failovers += 1
                self.send(leader, request)

    def _on_replica_commit_reply(self, message: ReplicaCommitReply, src: object) -> None:
        """Tally per-replica outcome reports; accept at f+1 matching votes.

        Votes only count from distinct replicas of the transaction's
        coordinator cluster (at most ``f`` of which are faulty, so ``f + 1``
        matching reports contain at least one honest one).  When the quorum
        completes while the commit workflow is still waiting, a synthesized
        :class:`CommitReply` resumes it immediately; otherwise the outcome
        is stashed and ``_commit_with_retry`` consumes it before its next
        attempt.  Reports for transactions this client is not waiting on
        (late duplicates, answered retries) are dropped.
        """
        quorum = self._commit_quorums.get(message.txn_id)
        if quorum is None or quorum.outcome is not None:
            return
        if message.partition != quorum.coordinator:
            return
        if src not in self.topology.members(quorum.coordinator):
            return
        outcome = (message.status, message.commit_batch, message.abort_reason)
        voters = quorum.votes.setdefault(outcome, set())
        voters.add(src)
        if len(voters) < self.config.certificate_size:
            return
        quorum.outcome = outcome
        self.stats.replica_quorum_commits += 1
        if quorum.request_id in self._waits_by_request:
            self._on_reply(self._quorum_commit_reply(message.txn_id, quorum), src)

    def _quorum_commit_reply(self, txn_id: str, quorum: _CommitQuorum) -> CommitReply:
        """The request-correlated reply a completed f+1 quorum stands for."""
        status, commit_batch, abort_reason = quorum.outcome
        return CommitReply(
            request_id=quorum.request_id,
            txn_id=txn_id,
            status=status,
            commit_batch=commit_batch,
            abort_reason=abort_reason,
        )

    def _coordinator_for(self, partitions: Iterable[PartitionId]) -> PartitionId:
        """Pick the coordinator cluster: the home partition when accessed, else the smallest."""
        accessed = sorted(partitions)
        if self.home_partition in accessed:
            return self.home_partition
        return accessed[0]

    def next_txn_id(self) -> str:
        return self._txn_ids.next()

    # ------------------------------------------------------------------
    # causal tracing (repro.obs)
    # ------------------------------------------------------------------

    def _trace_begin(self, kind: str, txn_id: str):
        """Open a transaction's root span and make it the process's context.

        The transaction id is the trace id, so a chaos failure naming a
        transaction can be joined directly against the trace store.  Returns
        ``None`` (and does nothing) when tracing is disabled.
        """
        obs = self.env.obs
        if not obs.tracing:
            return None
        span = obs.tracer.begin_trace(txn_id, kind, str(self.node_id))
        process = self._active_process
        if process is not None:
            process.span = span
        self._current_span = span
        return span

    def _trace_end(self, span, status: str = "ok") -> None:
        """Close a transaction's root span and drop it from the process."""
        if span is None:
            return
        self.env.obs.tracer.finish(span, status=status)
        process = self._active_process
        if process is not None and process.span is span:
            process.span = None
        if self._current_span is span:
            self._current_span = None

    # ------------------------------------------------------------------
    # read-write transactions
    # ------------------------------------------------------------------

    def read_write_txn(
        self,
        read_keys: Sequence[Key],
        writes: Mapping[Key, Value],
    ) -> Generator[object, object, CommitResult]:
        """Run one read-write transaction and return its :class:`CommitResult`."""
        txn_id = self.next_txn_id()
        span = self._trace_begin("txn:rw", txn_id)
        result = yield from self._read_write_txn(txn_id, read_keys, writes)
        self._trace_end(
            span, "ok" if result.status is TxnStatus.COMMITTED else "abort"
        )
        return result

    def _read_write_txn(
        self,
        txn_id: str,
        read_keys: Sequence[Key],
        writes: Mapping[Key, Value],
    ) -> Generator[object, object, CommitResult]:
        start = self.now

        reads: Dict[Key, BatchNumber] = {}
        if read_keys:
            grouped = self.partitioner.group_keys(read_keys)
            calls = [
                self._leader_call(partition, ReadRequest(keys=tuple(sorted(keys))))
                for partition, keys in sorted(grouped.items())
            ]
            replies = yield Gather(calls, timeout_ms=self._request_timeout_ms)
            for reply in replies:
                if not isinstance(reply, ReadReply):
                    self.stats.timeouts += 1
                    return CommitResult(
                        txn_id=txn_id,
                        status=TxnStatus.ABORTED,
                        abort_reason="read phase timed out",
                        latency_ms=self.now - start,
                    )
                reads.update(reply.versions)
            for key in read_keys:
                reads.setdefault(key, NO_BATCH)

        txn = TxnPayload(txn_id=txn_id, reads=reads, writes=dict(writes), client=self.name)
        coordinator = self._coordinator_for(txn.partitions(self.partitioner))
        reply = yield from self._commit_with_retry(coordinator, txn, complain=True)
        latency = self.now - start
        if reply is None:
            return CommitResult(
                txn_id=txn_id,
                status=TxnStatus.ABORTED,
                abort_reason="commit reply timed out",
                latency_ms=latency,
            )
        return CommitResult(
            txn_id=txn_id,
            status=reply.status,
            commit_batch=reply.commit_batch,
            latency_ms=latency,
            abort_reason=reply.abort_reason,
        )

    def _commit_with_retry(
        self,
        coordinator: PartitionId,
        txn: TxnPayload,
        complain: bool,
    ) -> Generator[object, object, Optional[CommitReply]]:
        """Submit ``txn`` for commitment, retrying timed-out attempts.

        The flat commit timeout degrades gracefully: each timed-out attempt
        backs off and resubmits a fresh :class:`CommitRequest` (request ids
        are single-use at the process layer).  Resubmission is duplicate-safe
        — the coordinator's leader answers repeats of an already-decided
        transaction from its replicated ``decided``/``local_decided`` records
        instead of re-admitting them.

        Positional refusals (``POSITIONAL_REFUSALS``: not-leader,
        mid-recovery) are retried like timeouts rather than surfaced as
        aborts — the refusing node never admitted the transaction, but a
        failover re-send or an earlier unanswered attempt may have, so the
        refusal is not an outcome.  When no retry can settle it, the
        attempt ends *unanswered* ("commit reply timed out"), landing in
        the chaos runner's unknown-outcome resolution instead of being
        recorded as an abort that a later read could contradict.

        ``complain`` sends a :class:`LeaderComplaint` to the whole coordinator
        cluster after each timeout (classic PBFT client behaviour): followers
        treat the complaint as progress-monitor evidence, so a leader that
        crashed while idle is still suspected and replaced automatically.
        The complaint carries the unanswered transaction as evidence —
        followers corroborate it by forwarding the request to the leader and
        only sustain suspicion while that probe goes unanswered.

        Independently of the leader's reply, ``f + 1`` matching
        :class:`ReplicaCommitReply` reports from the coordinator cluster
        decide the attempt (see :meth:`_on_replica_commit_reply`): a leader
        that dies right after its cluster certifies the outcome cannot
        strand this client until the timeout.
        """
        reply: Optional[CommitReply] = None
        quorum = self._commit_quorums[txn.txn_id] = _CommitQuorum(coordinator)
        try:
            for attempt in range(COMMIT_RETRY_ATTEMPTS):
                if attempt:
                    self.stats.commit_retries += 1
                    yield Sleep(COMMIT_RETRY_BACKOFF_MS * attempt)
                request = CommitRequest(txn=txn)
                quorum.request_id = request.request_id
                if quorum.outcome is not None:
                    # The quorum completed while no attempt was waiting
                    # (e.g. during backoff): consume it, skip the send.
                    reply = self._quorum_commit_reply(txn.txn_id, quorum)
                    break
                answer = yield self._leader_call(
                    coordinator, request, timeout_ms=self._commit_timeout_ms
                )
                reply = answer if isinstance(answer, CommitReply) else None
                if (
                    reply is not None
                    and reply.status is not TxnStatus.COMMITTED
                    and reply.abort_reason in POSITIONAL_REFUSALS
                ):
                    # A positional refusal decides nothing (see
                    # POSITIONAL_REFUSALS) and a failover re-send may have
                    # been admitted elsewhere, so it is never surfaced as
                    # the final abort.  Retry without complaining: a live
                    # replica answered, so this is routing staleness, not a
                    # silent leader.
                    reply = None
                    continue
                if reply is not None:
                    break
                if quorum.outcome is not None:
                    reply = self._quorum_commit_reply(txn.txn_id, quorum)
                    break
                if complain:
                    self.stats.timeouts += 1
                    for member in self.topology.members(coordinator):
                        self.send(member, LeaderComplaint(partition=coordinator, txn=txn))
        finally:
            self._commit_quorums.pop(txn.txn_id, None)
        return reply

    # ------------------------------------------------------------------
    # TransEdge snapshot read-only transactions (Section 4)
    # ------------------------------------------------------------------

    def read_only_txn(
        self, keys: Sequence[Key]
    ) -> Generator[object, object, ReadOnlyResult]:
        """Run one snapshot read-only transaction (at most two rounds).

        With an edge tier configured, round 1 is tried against a nearby edge
        proxy first; the proxy's sections are verified exactly like core
        replies (proofs, certified headers, freshness), so a byzantine or
        stale proxy is caught, blacklisted and transparently replaced by a
        direct core round 1.  Dependency-repair rounds always go to the core
        (only core replicas hold the archived historical trees).
        """
        txn_id = self.next_txn_id()
        span = self._trace_begin("txn:ro", txn_id)
        result = yield from self._read_only_txn(txn_id, keys)
        self._trace_end(span, "ok" if result.verified else "unverified")
        return result

    def _read_only_txn(
        self, txn_id: str, keys: Sequence[Key]
    ) -> Generator[object, object, ReadOnlyResult]:
        start = self.now
        grouped = self.partitioner.group_keys(keys)

        snapshots: Optional[Dict[PartitionId, PartitionSnapshot]] = None
        served_by_edge = False
        verified = True
        stale_suspicion: Optional[Tuple[EdgeProxyId, PartitionId, BatchNumber]] = None
        if self.edge_router is not None:
            proxy = self.edge_router.pick()
            if proxy is not None:
                self.stats.edge_reads_attempted += 1
                edge_outcome, stale_suspicion = yield from self._edge_round1(
                    proxy, grouped
                )
                if edge_outcome is None:
                    self.stats.edge_fallbacks += 1
                else:
                    snapshots, served_by_edge = edge_outcome
                    # "Served by edge" means the proxy answered from its own
                    # verified cache; a proxy that had to fetch from the core
                    # merely relayed a core-served read.
                    if served_by_edge:
                        self.stats.edge_reads_served += 1
                    else:
                        self.stats.edge_relays += 1
                    # Flight-recorder evidence for the edge-freshness oracle:
                    # header age of every accepted section, measured at the
                    # moment of acceptance (events never alter fingerprints).
                    self.env.obs.event(
                        str(self.node_id),
                        "edge-read-accepted",
                        "info",
                        {
                            "txn_id": txn_id,
                            "proxy": str(proxy),
                            "cache_served": bool(served_by_edge),
                            "staleness_ms": {
                                int(partition): self.now - snapshot.header.timestamp_ms
                                for partition, snapshot in sorted(snapshots.items())
                                if snapshot.header is not None
                            },
                        },
                    )
        if snapshots is None:
            # A partition nobody answers verifiably keeps its empty snapshot.
            snapshots = {
                partition: PartitionSnapshot(partition, tuple(sorted(grouped[partition])))
                for partition in sorted(grouped)
            }
            verified = yield from self._core_round(grouped, snapshots)
            if stale_suspicion is not None:
                self._judge_stale_suspicion(stale_suspicion, snapshots)

        round1_end = self.now
        rounds = 1
        # Dependency repair runs to a fixpoint: a repair snapshot (the
        # earliest with LCE >= the dependency) can itself carry commits whose
        # counterpart on another partition landed in a *later* batch there,
        # creating a fresh unsatisfied dependency the first check could not
        # see.  Re-checking after each repair closes that race; LCEs only
        # move forward, so the loop converges (almost always in one round —
        # the cap guards the degenerate case and fails safe as unverified).
        required = find_unsatisfied_dependencies(snapshots)
        while required and rounds <= self.MAX_REPAIR_ROUNDS:
            rounds += 1
            if rounds == 2:
                self.stats.read_only_second_rounds += 1
            repaired = yield from self._core_round(grouped, snapshots, required)
            verified = verified and repaired
            if not repaired:
                break
            required = find_unsatisfied_dependencies(snapshots)
        if required:
            verified = False

        end = self.now
        values, versions = assemble_result(snapshots, list(keys))
        self.stats.read_only_completed += 1
        return ReadOnlyResult(
            txn_id=txn_id,
            values=values,
            versions=versions,
            rounds=rounds,
            latency_ms=end - start,
            round2_latency_ms=(end - round1_end) if rounds == 2 else 0.0,
            verified=verified,
            served_by_edge=served_by_edge,
        )

    def _core_round(
        self,
        grouped: Mapping[PartitionId, Sequence[Key]],
        snapshots: Dict[PartitionId, PartitionSnapshot],
        required: Optional[Mapping[PartitionId, BatchNumber]] = None,
    ) -> Generator[object, object, bool]:
        """One round against the core: a request per partition, each reply verified.

        Round 1 (``required`` is None) asks every accessed partition for its
        current snapshot; a dependency-repair round asks only the lagging
        partitions for the snapshot naming their dependency.  Verified
        snapshots replace the partition's entry in ``snapshots``; returns
        whether every asked partition produced one.
        """
        needs = dict.fromkeys(grouped) if required is None else required
        asked = [(p, tuple(sorted(grouped[p])), needs[p]) for p in sorted(needs)]
        calls = [
            self._leader_call(partition, self._snapshot_request(keys, need))
            for partition, keys, need in asked
        ]
        replies = yield Gather(calls, timeout_ms=self._request_timeout_ms)
        verified = True
        for (partition, keys, need), reply in zip(asked, replies):
            snapshot = yield from self._verified_snapshot(partition, keys, reply, need)
            if snapshot is None:
                verified = False
            else:
                snapshots[partition] = snapshot
        return verified

    @staticmethod
    def _snapshot_request(
        keys: Tuple[Key, ...], required: Optional[BatchNumber]
    ) -> RequestMessage:
        """Round 1's request, or the repair round's when a dependency is named."""
        if required is None:
            return ReadOnlyRequest(keys=keys)
        return SnapshotRequest(keys=keys, required_prepare_batch=required)

    def _edge_round1(
        self, proxy: EdgeProxyId, grouped: Mapping[PartitionId, Sequence[Key]]
    ) -> Generator[
        object,
        object,
        Tuple[
            Optional[Tuple[Dict[PartitionId, PartitionSnapshot], bool]],
            Optional[Tuple[EdgeProxyId, PartitionId, BatchNumber]],
        ],
    ]:
        """Round 1 against an edge proxy.

        Returns ``(outcome, stale_suspicion)``.  ``outcome`` is None to fall
        back to the core, else the verified snapshots plus whether every
        partition came from the proxy's cache (a cache-served read) rather
        than being relayed.  Every section is re-verified here — the proxy is
        untrusted, so a malformed reply, bad proof or forged header
        blacklists it, and a section omitting a *requested* key is never
        believed (values carry membership proofs; absence carries none, so a
        withheld key falls back to the core for the authoritative answer).
        A section that is authentic but fails only the freshness bound is not
        immediate proof of misbehaviour — an idle partition's newest header
        ages past any bound — so it is returned as a *suspicion* the caller
        settles against the direct read's header (see
        :meth:`_judge_stale_suspicion`).
        """
        all_keys = tuple(sorted(key for keys in grouped.values() for key in keys))
        reply = yield Call(
            proxy,
            EdgeReadRequest(keys=all_keys),
            timeout_ms=EDGE_READ_TIMEOUT_MS,
        )
        if reply is REFUSED:
            self.stats.edge_verification_failures += 1
            self.edge_router.blacklist(proxy)
            return None, None
        if not isinstance(reply, EdgeReadReply):
            return None, None
        snapshots: Dict[PartitionId, PartitionSnapshot] = {}
        for partition in sorted(grouped):
            keys = tuple(sorted(grouped[partition]))
            section = reply.sections.get(partition)
            if section is None or any(key not in section.values for key in keys):
                # Incomplete: a fabricated absence cannot be proven wrong
                # (there are no non-membership proofs), so it is simply
                # never accepted — the direct read answers instead.
                return None, None
            snapshot = PartitionSnapshot.of(partition, keys, section)
            if not verify_snapshot(
                snapshot, self.verifier, self.topology, self.config, now_ms=self.now
            ):
                self.stats.edge_verification_failures += 1
                if verify_snapshot(
                    snapshot, self.verifier, self.topology, self.config
                ):
                    # Authentic but stale: withhold judgement until the
                    # direct read reveals whether fresher state existed.
                    return None, (proxy, partition, snapshot.batch_number)
                self.edge_router.blacklist(proxy)
                return None, None
            snapshots[partition] = snapshot
        from_cache = set(grouped) <= set(reply.from_cache)
        return (snapshots, from_cache), None

    def _judge_stale_suspicion(
        self,
        suspicion: Tuple[EdgeProxyId, PartitionId, BatchNumber],
        snapshots: Mapping[PartitionId, PartitionSnapshot],
    ) -> None:
        """Settle a freshness-bound failure: byzantine replay or idle cluster?

        The proxy is obliged to track the core within
        ``EdgeConfig.max_header_lag_batches``; if the direct read shows the
        core's snapshot materially ahead of what the proxy served, the proxy
        was hiding fresh state (the stale-replay attack) and is blacklisted.
        If the core serves (about) the same batch, the staleness was the
        cluster's own idleness and the proxy stays in rotation.
        """
        proxy, partition, served_batch = suspicion
        direct = snapshots.get(partition)
        if direct is None or direct.header is None:
            return  # no authoritative comparison; leave the proxy alone
        if direct.batch_number > served_batch + self.config.edge.max_header_lag_batches:
            self.edge_router.blacklist(proxy)

    def _verified_snapshot(
        self,
        partition: PartitionId,
        keys: Tuple[Key, ...],
        reply: object,
        required: Optional[BatchNumber],
    ) -> Generator[object, object, Optional[PartitionSnapshot]]:
        """Turn a reply into a verified snapshot, retrying other replicas on failure.

        Commit-freedom means a single node answers; if that node is byzantine
        (malformed reply, bad proof, forged header) the client simply asks
        another member of the same cluster.
        """
        reply_type = ReadOnlyReply if required is None else SnapshotReply
        candidates = None  # the other members, listed at the first failure
        attempt = 0
        while True:
            if isinstance(reply, reply_type):
                snapshot = PartitionSnapshot.of(partition, keys, reply)
                if verify_snapshot(
                    snapshot, self.verifier, self.topology, self.config, now_ms=self.now
                ):
                    return snapshot
                self.stats.read_only_verification_failures += 1
            elif reply is REFUSED:
                self.stats.read_only_verification_failures += 1
            if candidates is None:
                leader = self._leader_of(partition)
                candidates = [
                    member for member in self.topology.members(partition) if member != leader
                ]
            if attempt >= len(candidates):
                return None
            replica = candidates[attempt]
            attempt += 1
            reply = yield Call(
                replica,
                self._snapshot_request(keys, required),
                timeout_ms=self._request_timeout_ms,
            )

    # ------------------------------------------------------------------
    # Baseline 1: read-only transactions as regular 2PC/BFT transactions
    # ------------------------------------------------------------------

    def read_only_as_regular_txn(
        self, keys: Sequence[Key]
    ) -> Generator[object, object, ReadOnlyResult]:
        """Run a read-only transaction through the full read-write commit path.

        This is how the paper's 2PC/BFT baseline executes read-only
        transactions: the read set is validated and committed with BFT
        consensus in every accessed cluster plus 2PC coordination between
        them (Section 3.5).
        """
        txn_id = self.next_txn_id()
        start = self.now
        grouped = self.partitioner.group_keys(keys)
        calls = [
            self._leader_call(partition, ReadRequest(keys=tuple(sorted(partition_keys))))
            for partition, partition_keys in sorted(grouped.items())
        ]
        replies = yield Gather(calls, timeout_ms=self._request_timeout_ms)
        values: Dict[Key, Optional[Value]] = {key: None for key in keys}
        versions: Dict[Key, BatchNumber] = {key: NO_BATCH for key in keys}
        for reply in replies:
            if not isinstance(reply, ReadReply):
                continue
            values.update(reply.values)
            versions.update(reply.versions)

        txn = TxnPayload(
            txn_id=txn_id,
            reads=dict(versions),
            writes={},
            client=self.name,
        )
        coordinator = self._coordinator_for(txn.partitions(self.partitioner))
        reply = yield from self._commit_with_retry(coordinator, txn, complain=False)
        end = self.now
        committed = reply is not None and reply.status is TxnStatus.COMMITTED
        if committed:
            self.stats.read_only_completed += 1
        return ReadOnlyResult(
            txn_id=txn_id,
            values=values,
            versions=versions,
            rounds=1,
            latency_ms=end - start,
            verified=committed,
        )

    # ------------------------------------------------------------------
    # Baseline 2: Augustus-style quorum reads with shared locks
    # ------------------------------------------------------------------

    def augustus_read_only_txn(
        self,
        keys: Sequence[Key],
        max_attempts: int = 12,
        backoff_ms: float = 2.0,
    ) -> Generator[object, object, ReadOnlyResult]:
        """Run a read-only transaction the way Augustus does.

        The client contacts a ``2f + 1`` quorum of every accessed partition;
        each contacted replica takes shared locks on the read keys before
        answering.  A replica whose keys are write-locked by an in-flight
        read-write transaction denies the shared lock, in which case the
        client releases everything, backs off and retries — which is why
        Augustus read-only latency degrades under write load and with large
        read sets (Figures 5-7), and why its shared locks abort conflicting
        writers while held (Table 1).
        """
        txn_id = self.next_txn_id()
        start = self.now
        grouped = self.partitioner.group_keys(keys)
        quorum = self.config.quorum_size

        values: Dict[Key, Optional[Value]] = {key: None for key in keys}
        versions: Dict[Key, BatchNumber] = {key: NO_BATCH for key in keys}
        rounds = 0
        complete = False

        while rounds < max_attempts and not complete:
            rounds += 1
            attempt_id = f"{txn_id}/a{rounds}"
            calls: List[Call] = []
            call_partitions: List[PartitionId] = []
            contacted: List[ReplicaId] = []
            for partition, partition_keys in sorted(grouped.items()):
                members = self.topology.members(partition)[:quorum]
                for member in members:
                    calls.append(
                        Call(
                            member,
                            LockReadRequest(txn_id=attempt_id, keys=tuple(sorted(partition_keys))),
                        )
                    )
                    call_partitions.append(partition)
                    contacted.append(member)

            replies = yield Gather(calls, timeout_ms=self._request_timeout_ms)

            granted_counts: Dict[PartitionId, int] = {}
            for partition, reply in zip(call_partitions, replies):
                if not isinstance(reply, LockReadReply):
                    continue
                if reply.granted:
                    granted_counts[partition] = granted_counts.get(partition, 0) + 1
                    values.update(reply.values)
                    versions.update(reply.versions)
            complete = all(granted_counts.get(partition, 0) >= quorum for partition in grouped)

            # Release the shared locks everywhere (fire and forget).
            for member in contacted:
                self.send(member, LockReleaseMessage(txn_id=attempt_id))
            if not complete and rounds < max_attempts:
                yield Sleep(backoff_ms * rounds)

        end = self.now
        self.stats.read_only_completed += 1
        return ReadOnlyResult(
            txn_id=txn_id,
            values=values,
            versions=versions,
            rounds=rounds,
            latency_ms=end - start,
            verified=complete,
        )
