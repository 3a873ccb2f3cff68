"""Intentionally injectable bugs — the chaos engine's self-test.

A fuzzer whose oracles never fire is indistinguishable from a fuzzer whose
oracles are broken.  Each entry here re-introduces one *historical or
hypothetical* defect behind a context manager, so tests (and the CLI's
``--inject-bug``) can verify that the oracle suite actually catches it and
that the shrinker reduces the failing schedule to a small reproduction.

The bugs are deliberately real ones from this codebase's lineage:

* ``no-dependency-repair`` — disable the round-2 dependency check entirely:
  clients accept their round-1 snapshots as-is, resurrecting the torn-read
  anomaly of the paper's Figure 1 (and the shape of the round-2 repair race
  PR 4 fixed).  Caught by the serializability / atomic-visibility oracles.
* ``skip-crash-restarts`` — the runner "forgets" to restart crashed
  replicas at quiescence, modelling an operator that never rejoins failed
  nodes.  Caught by the liveness and recovery-convergence oracles.
* ``drop-commit-replies`` — leaders silently drop every second commit
  reply.  State stays perfectly consistent, so only the causal-trace
  completeness oracle (repro.obs) can see the loss.
* ``ack-without-delivery`` — the reliable channel acknowledges every
  intra-cluster message but hands none of them to the protocol layer: the
  worst failure mode a transport can have, because senders believe the
  network is healthy while consensus is completely dark.  Caught by the
  quiescent-liveness oracle (no probe commit can succeed).
* ``leader-dies-after-certify`` — leaders crash the moment their cluster
  certifies a client-visible outcome, and the f+1 ``ReplicaCommitReply``
  acceptance path (the fix for exactly this crash window) is disabled;
  with restarts suppressed, caught by the quiescent-liveness oracle.
* ``stale-edge-reads`` — the edge cache's lag/TTL refresh wedges and the
  client's freshness clause regresses to a no-op while the config declares
  a 25ms staleness bound: every read stays authentic and consistent (all
  correctness oracles green) but arbitrarily old; only the
  ``edge-freshness-bound`` oracle sees the unenforced SLO.
* ``verify-cache-wedged`` — every signature-verify cache lookup misses and
  nothing is ever stored: verification still *succeeds* (the registry
  re-verifies from scratch), so every correctness oracle stays green, but
  each miss burns ``CostConfig.verify_cache_miss_penalty_ms`` of replica
  occupancy.  Only the phase-latency anomaly oracle — comparing commit
  latency and phase attribution against the fault-free twin outside fault
  windows — can see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict


@dataclass(frozen=True)
class InjectedBug:
    """One injectable defect: a patch plus runner-behaviour flags."""

    name: str
    description: str
    #: Factory for the patch context manager (no-op for runner-level bugs).
    patch: Callable[[], ContextManager[None]] = field(
        default=lambda: contextlib.nullcontext()
    )
    #: Runner-level flag: skip restarting crashed replicas.
    skip_restarts: bool = False


@contextlib.contextmanager
def _no_dependency_repair():
    """Make every round-1 snapshot look dependency-free to the client."""
    import repro.core.client as client_module

    original = client_module.find_unsatisfied_dependencies
    client_module.find_unsatisfied_dependencies = lambda snapshots: {}
    try:
        yield
    finally:
        client_module.find_unsatisfied_dependencies = original


@contextlib.contextmanager
def _drop_commit_replies():
    """Leaders silently drop every second commit reply they would send.

    The classic lost-reply bug: the transaction commits (state is correct,
    so no serializability oracle can see it) but the client never hears
    back.  Only the causal-trace completeness oracle catches it — a trace
    whose ``CommitRequest`` reached a healthy leader must contain a
    ``CommitReply``.
    """
    from repro.core.leader import LeaderRole

    original = LeaderRole._send_commit_reply
    state = {"count": 0}

    def dropping(self, client, reply):
        state["count"] += 1
        if state["count"] % 2 == 0:
            return  # swallow the reply; the client waits forever
        original(self, client, reply)

    LeaderRole._send_commit_reply = dropping
    try:
        yield
    finally:
        LeaderRole._send_commit_reply = original


@contextlib.contextmanager
def _ack_without_delivery():
    """The reliable channel acks envelopes it never delivers.

    The receiver-side bookkeeping (watermarks, dedup state, ack timers) runs
    exactly as shipped — so cumulative acks flow back and the *sender*
    retires every message as successfully delivered — but the unwrapped
    payload is swallowed instead of being handed to the node.  Acks
    themselves still work, which is what makes the bug vicious: no
    retransmission cap is ever hit, no timer escalates, and the cluster
    simply never hears its own consensus traffic.
    """
    from repro.simnet.reliable import ReliableEnvelope, ReliableTransport

    original = ReliableTransport.on_receive

    def lying(self, node, src, message):
        result = original(self, node, src, message)
        if isinstance(message, ReliableEnvelope):
            return None  # acked above, never delivered
        return result

    ReliableTransport.on_receive = lying
    try:
        yield
    finally:
        ReliableTransport.on_receive = original


@contextlib.contextmanager
def _leader_dies_after_certify():
    """Leaders crash the instant their cluster certifies a client outcome.

    The historical single point of failure of the reply protocol: the batch
    is certified and applied by every follower, but the one node that
    answers clients dies before any :class:`CommitReply` leaves it.  The
    f+1 ``ReplicaCommitReply`` quorum path is disabled alongside — that fix
    is exactly what makes this crash survivable — so clients stall until
    their commit timeout.  Combined with ``skip_restarts`` the cluster
    bleeds leaders at every client-visible batch; the quiescent-liveness
    oracle sees still-crashed replicas and failed probe commits.
    """
    from repro.core.client import TransEdgeClient
    from repro.core.replica import PartitionReplica

    original_deliver = PartitionReplica.deliver
    original_handler = TransEdgeClient._on_replica_commit_reply

    def dying(self, seq, proposal, certificate):
        batch = proposal
        outcomes = bool(batch.local_txns) or any(
            record.coordinator == self.partition for record in batch.committed
        )
        if self.is_leader and outcomes and not self.crashed:
            self.crashed = True
            self.obs_event("replica-crash", "error")
            return  # dies with the batch applied nowhere on this node
        original_deliver(self, seq, proposal, certificate)

    def deaf(self, message, src):
        return None  # pre-fix clients: replica outcome reports don't exist

    PartitionReplica.deliver = dying
    TransEdgeClient._on_replica_commit_reply = deaf
    try:
        yield
    finally:
        PartitionReplica.deliver = original_deliver
        TransEdgeClient._on_replica_commit_reply = original_handler


@contextlib.contextmanager
def _stale_edge_reads():
    """Edge refresh wedges and the client freshness clause regresses away.

    Three coordinated regressions that together unenforce a declared
    staleness SLO while staying correctness-green:

    * the scenario config *declares* a 25ms client staleness bound on every
      edge-enabled plan (the SLO the run is supposed to enforce);
    * the client's :func:`~repro.core.readonly.verify_snapshot` binding
      drops its clock argument, so the freshness clause never fires and
      arbitrarily old (but authentic) sections are accepted;
    * the edge cache's usability gate stops dropping contexts for header
      lag or TTL, so a proxy serves its first admitted context forever —
      header age grows with simulated time on every cache hit.

    Values, proofs and CD-vector repair are all untouched: stale snapshots
    are still *consistent* snapshots, so serializability, read-values and
    atomic visibility stay green.  Only the ``edge-freshness-bound`` oracle
    — re-checking each accepted section's recorded header age against the
    configured bound — can see the violation.
    """
    import repro.core.client as client_module
    from repro.chaos.plan import ConfigPoint
    from repro.edge.cache import EdgeCache

    original_verify = client_module.verify_snapshot
    original_usable = EdgeCache._usable_context
    original_expand = ConfigPoint.to_system_config

    def unbounded_verify(snapshot, registry, topology, config, now_ms=None):
        return original_verify(snapshot, registry, topology, config)

    def pinned_usable(self, partition, now_ms):
        return self._contexts.get(partition)

    def declaring_expand(self):
        if self.edge_enabled and self.client_staleness_bound_ms is None:
            self = dataclasses.replace(self, client_staleness_bound_ms=25.0)
        return original_expand(self)

    client_module.verify_snapshot = unbounded_verify
    EdgeCache._usable_context = pinned_usable
    ConfigPoint.to_system_config = declaring_expand
    try:
        yield
    finally:
        client_module.verify_snapshot = original_verify
        EdgeCache._usable_context = original_usable
        ConfigPoint.to_system_config = original_expand


@contextlib.contextmanager
def _verify_cache_wedged():
    """Every verify-cache lookup misses; stores are silently discarded.

    The performance-bug archetype: a cache whose eviction (or key
    derivation) regressed into pure overhead.  Verification results are
    still correct — the registry simply recomputes each one — so state,
    histories and fingerprinted counters other than the hit/miss tallies
    look healthy.  What gives it away is time: with
    ``CostConfig.verify_cache_miss_penalty_ms`` armed (chaos plans set it),
    every re-verification charges occupancy, inflating the verify phase and
    end-to-end commit latency that the phase-latency anomaly oracle compares
    against the fault-free twin.
    """
    from repro.crypto.signatures import VerifyCache

    original_lookup = VerifyCache.lookup
    original_store = VerifyCache.store

    def always_miss(self, key):
        self.misses += 1
        return None

    def never_store(self, key, value):
        return None

    VerifyCache.lookup = always_miss
    VerifyCache.store = never_store
    try:
        yield
    finally:
        VerifyCache.lookup = original_lookup
        VerifyCache.store = original_store


BUGS: Dict[str, InjectedBug] = {
    bug.name: bug
    for bug in (
        InjectedBug(
            name="no-dependency-repair",
            description=(
                "clients skip the CD-vector dependency check and accept torn "
                "round-1 snapshots (Figure 1 anomaly)"
            ),
            patch=_no_dependency_repair,
        ),
        InjectedBug(
            name="skip-crash-restarts",
            description="crashed replicas are never restarted at quiescence",
            skip_restarts=True,
        ),
        InjectedBug(
            name="drop-commit-replies",
            description=(
                "leaders silently drop every second commit reply (committed "
                "state is consistent; only trace completeness sees the loss)"
            ),
            patch=_drop_commit_replies,
        ),
        InjectedBug(
            name="leader-dies-after-certify",
            description=(
                "leaders crash right after certifying a client-visible batch "
                "and clients cannot accept f+1 replica outcome reports; with "
                "restarts suppressed the cluster bleeds leaders and liveness "
                "fails"
            ),
            patch=_leader_dies_after_certify,
            skip_restarts=True,
        ),
        InjectedBug(
            name="verify-cache-wedged",
            description=(
                "every signature-verify cache lookup misses and stores are "
                "discarded: correctness stays green while re-verification "
                "burns replica occupancy; only the phase-latency anomaly "
                "oracle (vs the fault-free twin) sees the slowdown"
            ),
            patch=_verify_cache_wedged,
        ),
        InjectedBug(
            name="stale-edge-reads",
            description=(
                "the edge cache stops refreshing for header lag or TTL and "
                "the client freshness clause goes dead while the config "
                "declares a 25ms staleness bound: stale-but-consistent edge "
                "reads keep every correctness oracle green; only the "
                "edge-freshness-bound oracle sees the unenforced SLO"
            ),
            patch=_stale_edge_reads,
        ),
        InjectedBug(
            name="ack-without-delivery",
            description=(
                "the reliable channel acknowledges intra-cluster messages it "
                "never delivers (senders see a healthy network; consensus "
                "goes dark and quiescent liveness fails)"
            ),
            patch=_ack_without_delivery,
        ),
    )
}


def get_bug(name: str) -> InjectedBug:
    try:
        return BUGS[name]
    except KeyError:
        known = ", ".join(sorted(BUGS))
        raise ValueError(f"unknown injected bug {name!r}; expected one of {known}")
