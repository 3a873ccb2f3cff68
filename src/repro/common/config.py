"""Configuration objects for the simulated TransEdge deployment.

A single :class:`SystemConfig` describes the whole deployment: partitioning,
replication factor, batching policy, network latency model parameters and the
per-operation processing-cost model used to derive simulated throughput.

The defaults mirror the experimental setup in Section 5.1 of the paper
(5 clusters, 7 replicas per cluster tolerating ``f = 2`` byzantine faults),
scaled so that the full benchmark suite completes quickly on one machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Optional

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class LatencyConfig:
    """Network latency parameters, in simulated milliseconds.

    ``inter_cluster_extra_ms`` models the "additional latency between
    clusters" knob the paper sweeps in Figures 8, 12 and 13.

    ``client_to_edge_ms`` is the near-edge link: a client talking to an edge
    proxy placed in its own region.  It is deliberately much smaller than
    ``client_to_cluster_ms`` so that the edge-tier experiments can model
    clients that are close to a proxy but far from every core cluster.
    """

    intra_cluster_ms: float = 0.5
    inter_cluster_ms: float = 2.0
    client_to_cluster_ms: float = 1.0
    client_to_edge_ms: float = 0.2
    inter_cluster_extra_ms: float = 0.0
    jitter_fraction: float = 0.05

    def validate(self) -> None:
        for name in (
            "intra_cluster_ms",
            "inter_cluster_ms",
            "client_to_cluster_ms",
            "client_to_edge_ms",
            "inter_cluster_extra_ms",
        ):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if not 0 <= self.jitter_fraction < 1:
            raise ConfigurationError("jitter_fraction must be in [0, 1)")


@dataclass(frozen=True)
class CostConfig:
    """Per-operation processing costs, in simulated milliseconds.

    Nodes are modelled as single-server queues: every message handled by a
    node occupies it for the modelled cost, which is what bounds simulated
    throughput.  The constants are small, laptop-class estimates; only their
    ratios matter for reproducing the shape of the paper's figures.
    """

    #: Extra occupancy charged per signature-verify *cache miss*, on top of
    #: the flat ``signature_verify_ms``.  The default 0.0 keeps the seed cost
    #: model byte-for-byte (hits and misses cost the same); setting it makes
    #: simulated latency sensitive to verify-cache health, which is what lets
    #: the chaos performance oracle see a wedged cache.
    verify_cache_miss_penalty_ms: float = 0.0

    # Constants of the cost model, not options (read as ``costs.x``).
    signature_sign_ms: ClassVar[float] = 0.02
    signature_verify_ms: ClassVar[float] = 0.02
    hash_ms: ClassVar[float] = 0.001
    read_op_ms: ClassVar[float] = 0.002
    write_op_ms: ClassVar[float] = 0.003
    #: Cost of producing one Merkle proof *per tree level*; the total charge
    #: is O(log K) in the partition size (see :meth:`merkle_proof_cost_ms`):
    #: 0.004 ms at K = 1000 keys (a 10-level tree).
    merkle_proof_per_level_ms: ClassVar[float] = 0.0004
    conflict_check_ms: ClassVar[float] = 0.002
    batch_base_ms: ClassVar[float] = 0.05
    message_handling_ms: ClassVar[float] = 0.01

    def merkle_proof_cost_ms(self, tree_keys: int) -> float:
        """Cost of one membership proof over a tree of ``tree_keys`` leaves.

        A proof walks one root path, so its cost scales with the tree depth
        ``ceil(log2 K)`` — the state-size-aware replacement for the old flat
        per-proof charge, which made simulated service time insensitive to
        the partition size.
        """
        levels = max(1, math.ceil(math.log2(tree_keys))) if tree_keys > 1 else 1
        return self.merkle_proof_per_level_ms * levels

    def tree_rebuild_cost_ms(self, tree_keys: int) -> float:
        """Cost of rebuilding a full Merkle tree over ``tree_keys`` leaves.

        Hashing every leaf plus the internal nodes is ~2K hashes; this is the
        O(K) charge a round-2 snapshot request pays when the archive cannot
        answer and the replica falls back to a rebuild, so simulated
        throughput reflects the archive fast path as well as wall-clock does.
        """
        return self.hash_ms * 2 * max(1, tree_keys)

    def validate(self) -> None:
        if self.verify_cache_miss_penalty_ms < 0:
            raise ConfigurationError("verify_cache_miss_penalty_ms must be non-negative")


@dataclass(frozen=True)
class BatchConfig:
    """Batching policy of the partition leader.

    A batch is sealed and proposed to consensus when either ``max_size``
    transactions have accumulated or ``timeout_ms`` has elapsed since the
    first transaction entered the in-progress batch, whichever comes first.
    """

    max_size: int = 100
    timeout_ms: float = 5.0

    def validate(self) -> None:
        if self.max_size < 1:
            raise ConfigurationError("batch max_size must be >= 1")
        if self.timeout_ms <= 0:
            raise ConfigurationError("batch timeout_ms must be > 0")


@dataclass(frozen=True)
class FreshnessConfig:
    """Client-side staleness bound on verified reads (Section 4.4.2 of the paper)."""

    client_staleness_bound_ms: Optional[float] = None

    def validate(self) -> None:
        if (
            self.client_staleness_bound_ms is not None
            and self.client_staleness_bound_ms <= 0
        ):
            raise ConfigurationError("client_staleness_bound_ms must be > 0")


@dataclass(frozen=True)
class CheckpointConfig:
    """Checkpointing, log-compaction and state-transfer policy (``repro.recovery``).

    Every ``interval_batches`` delivered batches each replica digests its
    partition state and votes for a checkpoint; ``2f + 1`` matching votes make
    the checkpoint *stable*, after which the SMR log below it is truncated and
    version chains are pruned down to ``retention_batches`` below the stable
    checkpoint.  Disabling checkpointing restores the unbounded seed
    behaviour (useful for history-verification tests that replay full logs).
    """

    enabled: bool = True
    interval_batches: int = 100
    retention_batches: int = 20

    def validate(self) -> None:
        if self.interval_batches < 1:
            raise ConfigurationError("checkpoint interval_batches must be >= 1")
        if self.retention_batches < 0:
            raise ConfigurationError("checkpoint retention_batches must be >= 0")


@dataclass(frozen=True)
class FailoverConfig:
    """Automatic failure detection (``repro.recovery`` PR 3).

    ``progress_timeout_ms`` is how long a replica tolerates *pending work
    without progress* (an in-flight consensus instance, a gap in deliveries,
    an undecided prepare group, or a client complaint) before voting to
    replace its leader; each further round of silence casts another vote.
    The timer is armed lazily (only while matching work is pending), so an
    idle or healthy deployment schedules nothing.

    Independently of the failure detector, every replica of the coordinator
    cluster reports each client-visible outcome it applies from a delivered
    batch (:class:`repro.core.messages.ReplicaCommitReply`) and a client
    accepts a commit once ``f + 1`` replicas agree — classic PBFT client
    behaviour, so a leader that dies immediately after its cluster certifies
    the outcome cannot strand the client until timeout.
    """

    progress_timeout_ms: float = 60.0

    def validate(self) -> None:
        if self.progress_timeout_ms <= 0:
            raise ConfigurationError("progress_timeout_ms must be > 0")


@dataclass(frozen=True)
class PerfConfig:
    """Hot-path sizing: the Merkle tree archive window.

    Every partition keeps a copy-on-write archive of recent committed Merkle
    trees, so round-2 snapshot reads are served in O(read · log K) instead
    of rebuilding an O(K) tree per request; ``archive_max_batches`` bounds
    its memory when checkpoint-driven pruning is off.  A request for a batch
    older than the archive is answered by rebuilding the historical tree
    from the multi-version store — serving any *other* snapshot would be
    unsound, since only the earliest dependency-satisfying header is covered
    by the protocol's two-round consistency argument.  At checkpoint time
    adjacent archive deltas are merged for batches that no round-2 snapshot
    request can ever name (only the earliest header of each LCE run is
    reachable through the dependency lookup), which extends the retained
    window at equal memory; see
    :meth:`~repro.crypto.archive.MerkleTreeArchive.compact`.
    """

    archive_max_batches: int = 512

    def validate(self) -> None:
        if self.archive_max_batches < 1:
            raise ConfigurationError("archive_max_batches must be >= 1")


@dataclass(frozen=True)
class EdgeConfig:
    """Untrusted edge read-proxy tier (``repro.edge``).

    When ``enabled``, the deployment spawns ``num_proxies`` edge proxies that
    sit between clients and the core partition clusters.  Each proxy caches
    recent certified batch headers plus ``(key, value, version, proof)``
    entries per partition and serves snapshot read-only requests locally when
    its cache can satisfy the CD-vector consistency check, falling back to
    the core cluster on misses.  Proxies are *untrusted*: clients re-verify
    every proof and header exactly as they do for core replicas, so a
    byzantine or stale proxy can only be caught (and blacklisted), never
    believed.  ``enabled=False`` (the default) spawns nothing and leaves the
    client read path byte-for-byte unchanged.

    * ``cache_ttl_ms`` — entries older than this are refreshed from the core
      (``None`` disables the time bound).
    * ``max_header_lag_batches`` — a cached partition context whose header
      trails the newest announced header by more than this many batches is
      refreshed, bounding edge staleness in batches.
    """

    enabled: bool = False
    num_proxies: int = 2
    cache_ttl_ms: Optional[float] = None
    max_header_lag_batches: int = 8

    def validate(self) -> None:
        if self.num_proxies < 1:
            raise ConfigurationError("edge num_proxies must be >= 1")
        if self.cache_ttl_ms is not None and self.cache_ttl_ms <= 0:
            raise ConfigurationError("edge cache_ttl_ms must be > 0 when set")
        if self.max_header_lag_batches < 0:
            raise ConfigurationError("edge max_header_lag_batches must be >= 0")


@dataclass(frozen=True)
class ReliabilityConfig:
    """Reliable delivery over lossy core links (:mod:`repro.simnet.reliable`).

    Every replica-to-replica message travels through a
    :class:`~repro.simnet.reliable.ReliableTransport` (its ack delay and
    backoff are constants of that module).  ``max_retransmits`` bounds the
    consecutive no-progress retransmission rounds per link before the
    outstanding window is abandoned (the chaos planner only opens *finite*
    loss windows, so the cap exists to bound simulation work against
    genuinely dead peers, not for correctness).
    """

    max_retransmits: int = 12

    def validate(self) -> None:
        if self.max_retransmits < 1:
            raise ConfigurationError("reliability max_retransmits must be >= 1")


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (:mod:`repro.obs`).

    ``tracing_enabled`` turns on causal spans: clients open one trace per
    transaction, a ``TraceContext`` rides on every message, and every node
    records queue/net/handle spans.  Tracing draws no randomness and
    schedules no simulator events, so enabling it never changes what a run
    *does* — only what it records — and the same seed always produces the
    same trace digest.  Off by default: the hot path then pays only a
    boolean check per message.

    The flight recorder is always on: bounded per-node rings
    (``ring_capacity`` events each) of typed protocol events (view changes,
    checkpoints, recoveries, fault injections, cache refreshes) — the sites
    are rare and the memory is bounded.

    ``max_traces`` bounds trace retention: completed traces past the window
    are evicted oldest-first (the streaming digest already covers them).
    """

    tracing_enabled: bool = False
    ring_capacity: int = 256
    max_traces: int = 2048

    def validate(self) -> None:
        if self.ring_capacity < 1:
            raise ConfigurationError("obs ring_capacity must be >= 1")
        if self.max_traces < 1:
            raise ConfigurationError("obs max_traces must be >= 1")


@dataclass(frozen=True)
class MonitorConfig:
    """Live monitoring knobs (:mod:`repro.obs.monitor`).

    When ``enabled``, the deployment samples a :class:`~repro.obs.monitor.
    MetricsTimeline` of windowed counter deltas every ``window_ms`` of
    *simulated* time and derives per-node health states.  Sampling
    piggybacks on existing dispatches (no extra simulator events), draws no
    randomness and mutates no counters, so enabling it never changes what a
    run does — chaos fingerprints and trace digests are byte-identical with
    monitoring on or off.

    ``window_ms`` is the nominal width of one timeline window.
    """

    enabled: bool = False
    window_ms: float = 50.0

    def validate(self) -> None:
        if self.window_ms <= 0:
            raise ConfigurationError("monitor window_ms must be > 0")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level description of a simulated TransEdge deployment.

    ``perf`` sizes the Merkle tree archive behind snapshot reads; see
    :class:`PerfConfig`.
    ``edge`` describes the optional untrusted edge read-proxy tier; see
    :class:`EdgeConfig`.  ``obs`` configures tracing and the flight
    recorder; see :class:`ObsConfig`.  ``monitor`` configures the live
    metrics timeline and health tracking; see :class:`MonitorConfig`.
    """

    num_partitions: int = 5
    fault_tolerance: int = 2
    batch: BatchConfig = field(default_factory=BatchConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    costs: CostConfig = field(default_factory=CostConfig)
    freshness: FreshnessConfig = field(default_factory=FreshnessConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    failover: FailoverConfig = field(default_factory=FailoverConfig)
    perf: PerfConfig = field(default_factory=PerfConfig)
    edge: EdgeConfig = field(default_factory=EdgeConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    crypto_backend: str = "hmac"
    seed: int = 7
    initial_keys: int = 1_000
    value_size: int = 256

    @property
    def cluster_size(self) -> int:
        """Replicas per cluster: ``3f + 1``."""
        return 3 * self.fault_tolerance + 1

    @property
    def quorum_size(self) -> int:
        """Consensus quorum: ``2f + 1``."""
        return 2 * self.fault_tolerance + 1

    @property
    def certificate_size(self) -> int:
        """Signatures carried in proofs sent across clusters: ``f + 1``."""
        return self.fault_tolerance + 1

    def validate(self) -> "SystemConfig":
        """Check internal consistency, returning ``self`` for chaining."""
        if self.num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        if self.fault_tolerance < 1:
            raise ConfigurationError("fault_tolerance (f) must be >= 1")
        if self.crypto_backend not in ("hmac", "rsa"):
            raise ConfigurationError(
                f"unknown crypto backend {self.crypto_backend!r}; expected 'hmac' or 'rsa'"
            )
        if self.initial_keys < 1:
            raise ConfigurationError("initial_keys must be >= 1")
        if self.value_size < 1:
            raise ConfigurationError("value_size must be >= 1")
        self.batch.validate()
        self.latency.validate()
        self.costs.validate()
        self.freshness.validate()
        self.checkpoint.validate()
        self.failover.validate()
        self.perf.validate()
        self.edge.validate()
        self.reliability.validate()
        self.obs.validate()
        self.monitor.validate()
        return self

    def with_updates(self, **changes: object) -> "SystemConfig":
        """Return a copy with ``changes`` applied and validated.

        Nested configuration objects can be replaced wholesale, e.g.::

            config.with_updates(latency=LatencyConfig(inter_cluster_extra_ms=70))
        """
        return replace(self, **changes).validate()

    def with_tracing(self, enabled: bool = True, **obs_changes: object) -> "SystemConfig":
        """Copy with causal tracing toggled (and optional ObsConfig tweaks)."""
        return self.with_updates(
            obs=replace(self.obs, tracing_enabled=enabled, **obs_changes)
        )


def paper_scale_config() -> SystemConfig:
    """Configuration matching Section 5.1 of the paper.

    5 clusters of 7 replicas (``f = 2``); read-write transactions use 5 reads
    and 3 writes spread over the 5 clusters; read-only transactions read one
    key per cluster.  The key space is reduced from 1M to keep simulation
    state small — the hash partitioner and uniform key choice make the
    contention level a function of the *ratio* of transactions to keys, which
    benchmark workloads preserve.
    """
    return SystemConfig(num_partitions=5, fault_tolerance=2).validate()


def small_test_config(num_partitions: int = 2, fault_tolerance: int = 1) -> SystemConfig:
    """A small deployment used throughout the unit tests (fast to simulate)."""
    return SystemConfig(
        num_partitions=num_partitions,
        fault_tolerance=fault_tolerance,
        batch=BatchConfig(max_size=10, timeout_ms=2.0),
        initial_keys=64,
    ).validate()
