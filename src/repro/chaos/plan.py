"""Chaos plans: the replayable description of one generated scenario.

A :class:`ChaosPlan` is pure data — JSON-serialisable, hashable into a
fingerprint, and sufficient on its own to re-execute the exact run (the
runner derives everything else deterministically from it).  The *planner*
(:func:`plan_from_seed`) draws a plan from a single ``random.Random(seed)``;
the *shrinker* edits plans structurally (dropping fault events and workload
segments), which is why the plan, not the seed, is the unit of replay.

Planning constraints keep generated scenarios inside the envelope the
protocol promises to survive, so every oracle failure is a real bug:

* at most ``f`` replicas of a partition are crashed at any moment, and every
  crash schedules a restart (the oracles judge the *recovered* system);
* drop windows cover client↔core links and core-to-core links inside a
  partition, which the reliable channel (:mod:`repro.simnet.reliable`)
  retransmits (delays are allowed anywhere);
* byzantine proxies are only planned when the edge tier is enabled.

Core-link drop targets are drawn from a *side-stream* generator (seeded from
the plan seed but distinct from the main stream), so every draw of the main
stream — and therefore every pre-existing plan fingerprint for seeds without
drop faults — is unchanged by the planner learning the new fault target.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence

from repro.common.config import (
    BatchConfig,
    CheckpointConfig,
    CostConfig,
    EdgeConfig,
    FailoverConfig,
    FreshnessConfig,
    LatencyConfig,
    MonitorConfig,
    PerfConfig,
    ReliabilityConfig,
    SystemConfig,
)
from repro.common.errors import ConfigurationError
from repro.crypto.hashing import sha256_hex, stable_encode
from repro.storage.partitioner import HashPartitioner

#: Fault kinds understood by the runner.
FAULT_KINDS = ("crash", "leader-kill", "drop", "delay", "byzantine-proxy")

#: Workload segment kinds understood by the runner.
SEGMENT_KINDS = ("mixed", "read-only", "group-write", "group-read")


def _check_keys(cls, entry: object, source: str) -> None:
    """Fail closed, by name, unless ``entry``'s keys are exactly ``cls``'s fields.

    A plan is replayed, never interpreted: a key this version does not know
    (or one it needs and does not find) means another version wrote the
    file, and defaulting or dropping it would silently run a different
    scenario under the same name.
    """
    names = {f.name for f in fields(cls)}
    keys = set(entry) if isinstance(entry, dict) else set()
    if keys != names:
        raise ConfigurationError(
            f"{source}: {cls.__name__} does not match this version's plan "
            f"schema (unknown keys: {sorted(keys - names) or 'none'}; "
            f"missing keys: {sorted(names - keys) or 'none'})"
        )


def _from_keys(cls, entry: object, source: str):
    _check_keys(cls, entry, source)
    return cls(**entry)


@dataclass(frozen=True)
class ConfigPoint:
    """The system-configuration coordinates of one scenario."""

    num_partitions: int = 2
    fault_tolerance: int = 1
    initial_keys: int = 48
    value_size: int = 32
    batch_max_size: int = 4
    batch_timeout_ms: float = 2.0
    checkpoint_enabled: bool = True
    checkpoint_interval: int = 8
    retention_batches: int = 6
    edge_enabled: bool = False
    edge_num_proxies: int = 2
    edge_max_header_lag: int = 4
    edge_cache_ttl_ms: Optional[float] = None
    progress_timeout_ms: float = 60.0
    jitter_fraction: float = 0.0
    commit_timeout_ms: float = 800.0
    request_timeout_ms: float = 600.0
    system_seed: int = 7
    #: Extra occupancy per signature-verify cache miss.  Non-zero in chaos
    #: runs so simulated latency is sensitive to verify-cache health — a
    #: wedged cache becomes a *measurable* slowdown the phase-latency
    #: oracle can catch (the benchmark/default cost model keeps 0.0).  The
    #: magnitude models a real from-scratch verification (think RSA) being
    #: an order of magnitude dearer than a memo hit; empirically it puts a
    #: wedged cache 2–4x above the twin while honest fault recovery (cold
    #: caches after restarts) stays under ~1.5x.
    verify_cache_miss_penalty_ms: float = 2.0
    #: Monitoring-timeline window width; the live monitor is always on in
    #: chaos runs (it is provably neutral) so every report carries health
    #: states and the performance oracle has timelines to compare.
    monitor_window_ms: float = 50.0
    #: The remaining fields are *mutation-only* dimensions: the uniform
    #: planner (:func:`plan_from_seed`) always leaves them at these defaults
    #: — which reproduce the historical behaviour byte-for-byte — and only
    #: the coverage-guided mutator (:mod:`repro.chaos.coverage`) moves them,
    #: opening config regions uniform seeds can never reach (e.g. a tiny
    #: archive is the only road to ``snapshot_rebuilds``).
    #: Client staleness bound on verified reads (None = unbounded, the
    #: pre-fleet behaviour); arming it also arms the edge-freshness oracle.
    client_staleness_bound_ms: Optional[float] = None
    #: Merkle-archive retention; round-2 snapshots past it are rebuilt.
    archive_max_batches: int = 512
    #: Retransmission-round cap per core link (None = library default);
    #: lowering it makes ``transport_retransmits_abandoned`` reachable
    #: within a survivable drop window.
    max_retransmits: Optional[int] = None

    def to_system_config(self) -> SystemConfig:
        """Expand into the full :class:`SystemConfig` the runner builds."""
        return SystemConfig(
            num_partitions=self.num_partitions,
            fault_tolerance=self.fault_tolerance,
            initial_keys=self.initial_keys,
            value_size=self.value_size,
            seed=self.system_seed,
            batch=BatchConfig(
                max_size=self.batch_max_size, timeout_ms=self.batch_timeout_ms
            ),
            latency=LatencyConfig(jitter_fraction=self.jitter_fraction),
            checkpoint=CheckpointConfig(
                enabled=self.checkpoint_enabled,
                interval_batches=self.checkpoint_interval,
                retention_batches=self.retention_batches,
            ),
            failover=FailoverConfig(progress_timeout_ms=self.progress_timeout_ms),
            reliability=(
                ReliabilityConfig()
                if self.max_retransmits is None
                else ReliabilityConfig(max_retransmits=self.max_retransmits)
            ),
            costs=CostConfig(
                verify_cache_miss_penalty_ms=self.verify_cache_miss_penalty_ms
            ),
            monitor=MonitorConfig(enabled=True, window_ms=self.monitor_window_ms),
            freshness=FreshnessConfig(
                client_staleness_bound_ms=self.client_staleness_bound_ms
            ),
            perf=PerfConfig(archive_max_batches=self.archive_max_batches),
            edge=EdgeConfig(
                enabled=self.edge_enabled,
                num_proxies=self.edge_num_proxies,
                max_header_lag_batches=self.edge_max_header_lag,
                cache_ttl_ms=self.edge_cache_ttl_ms,
            ),
        ).validate()


@dataclass(frozen=True)
class WorkloadSegment:
    """One client's stream of transactions, generated from its own sub-seed."""

    client: int
    kind: str
    count: int
    start_ms: float
    gap_ms: float
    seed: int
    read_only_fraction: float = 0.3
    local_fraction: float = 0.3
    distribution: str = "uniform"
    zipf_theta: float = 0.9
    group: int = 0


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault.  Unused fields keep their defaults per ``kind``.

    * ``crash`` — crash member ``replica_index`` of ``partition`` at
      ``at_ms``, restart it ``duration_ms`` later;
    * ``leader-kill`` — crash whoever leads ``partition`` at fire time;
    * ``drop`` with ``target="client"`` — drop client ``client``'s traffic
      (``direction`` selects to-core or from-core) with ``probability`` for
      ``duration_ms``;
    * ``drop`` with ``target="core"`` — drop intra-cluster traffic between
      the replicas of ``partition`` with ``probability`` for ``duration_ms``
      (survivable only because the reliable channel retransmits);
    * ``delay`` — delay all traffic matching ``probability`` by ``extra_ms``
      for ``duration_ms``;
    * ``byzantine-proxy`` — install ``behaviour`` on edge proxy ``proxy``.
    """

    at_ms: float
    kind: str
    partition: int = 0
    replica_index: int = 1
    duration_ms: float = 30.0
    client: int = 0
    direction: str = "to-core"
    #: Drop scope: ``"client"`` (client↔core links) or ``"core"``
    #: (replica↔replica links of ``partition``).
    target: str = "client"
    probability: float = 0.25
    extra_ms: float = 4.0
    proxy: int = 0
    behaviour: str = "tampered-value"


@dataclass(frozen=True)
class ChaosPlan:
    """A full scenario: config point + workload plan + fault plan."""

    seed: int
    config: ConfigPoint
    num_clients: int
    groups: Sequence[Sequence[str]]
    segments: Sequence[WorkloadSegment]
    faults: Sequence[FaultEvent]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config": asdict(self.config),
            "num_clients": self.num_clients,
            "groups": [list(group) for group in self.groups],
            "segments": [asdict(segment) for segment in self.segments],
            "faults": [asdict(event) for event in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict, source: str = "plan") -> "ChaosPlan":
        """Rebuild a plan; ``source`` (a file name) prefixes schema errors."""
        _check_keys(cls, data, source)
        return cls(
            seed=int(data["seed"]),
            config=_from_keys(ConfigPoint, data["config"], source),
            num_clients=int(data["num_clients"]),
            groups=tuple(tuple(group) for group in data["groups"]),
            segments=tuple(
                _from_keys(WorkloadSegment, entry, source) for entry in data["segments"]
            ),
            faults=tuple(
                _from_keys(FaultEvent, entry, source) for entry in data["faults"]
            ),
        )

    def digest(self) -> str:
        """Identity of the plan: digest of its canonical encoding.

        Corpus entry ids are a prefix of it; the runner keys fault-free twin
        baselines on it in full.
        """
        return sha256_hex(stable_encode(self.to_dict()))

    # -- structural edits (used by the shrinker) ---------------------------

    def without_fault(self, index: int) -> "ChaosPlan":
        faults = tuple(event for i, event in enumerate(self.faults) if i != index)
        return replace(self, faults=faults)

    def without_segment(self, index: int) -> "ChaosPlan":
        segments = tuple(s for i, s in enumerate(self.segments) if i != index)
        return replace(self, segments=segments)

    def with_segment_count(self, index: int, count: int) -> "ChaosPlan":
        segments = tuple(
            replace(segment, count=count) if i == index else segment
            for i, segment in enumerate(self.segments)
        )
        return replace(self, segments=segments)


def partition_keys(config: ConfigPoint) -> Dict[int, List[str]]:
    """The preloaded key population, grouped by partition, without a system.

    Built from the *same* generator and partitioner the deployment uses, so
    the planner's reserved co-written groups are guaranteed to name real
    preloaded keys (the atomic-visibility oracle's zero-false-positive
    property rests on that).
    """
    from repro.core.system import generate_initial_data

    partitioner = HashPartitioner(config.num_partitions)
    grouped = partitioner.group_items(generate_initial_data(config.to_system_config()))
    return {
        partition: sorted(grouped.get(partition, {}))
        for partition in range(config.num_partitions)
    }


def plan_from_seed(seed: int) -> ChaosPlan:
    """Draw a complete scenario from ``random.Random(seed)``."""
    rng = random.Random(seed)
    # Core-link drop targets come from this side stream (see module
    # docstring): consuming it never perturbs the main stream's draws.
    side = random.Random((seed << 4) ^ 0xC0DE)

    # Every main-stream draw stays in its historical order, so each seed
    # keeps its segments, faults and groups: the second draw (once the
    # failover toggle) now only decides whether this scenario plans leader
    # kills, and the two after ``retention_batches`` (once the archive
    # toggles) are consumed.
    edge_enabled = rng.random() < 0.4
    plans_leader_kills = rng.random() < 0.8
    first_draws = dict(
        num_partitions=rng.choice((2, 3)),
        initial_keys=rng.choice((36, 48, 64)),
        batch_max_size=rng.choice((4, 6, 8)),
        checkpoint_enabled=rng.random() < 0.8,
        checkpoint_interval=rng.choice((5, 8, 12)),
        retention_batches=rng.choice((4, 8)),
    )
    rng.random()
    rng.random()
    config = ConfigPoint(
        **first_draws,
        edge_enabled=edge_enabled,
        edge_num_proxies=rng.choice((1, 2)),
        edge_max_header_lag=rng.choice((2, 4, 8)),
        edge_cache_ttl_ms=rng.choice((None, 40.0)),
        progress_timeout_ms=rng.choice((40.0, 60.0)),
        jitter_fraction=rng.choice((0.0, 0.05)),
        commit_timeout_ms=rng.choice((400.0, 800.0)),
        request_timeout_ms=rng.choice((300.0, 600.0)),
        system_seed=rng.randrange(1, 1 << 16),
    )

    # Reserved co-written groups: one key from each of two partitions, never
    # touched by the random streams, so atomic visibility is checkable with
    # zero false positives.
    by_partition = partition_keys(config)
    groups: List[List[str]] = []
    for group_index in range(rng.randint(1, 2)):
        partitions = rng.sample(sorted(by_partition), 2)
        group = [by_partition[p][group_index] for p in sorted(partitions)]
        groups.append(group)

    num_clients = rng.randint(2, 4)
    segments: List[WorkloadSegment] = []

    def draw_segment(kind: str) -> WorkloadSegment:
        return WorkloadSegment(
            client=rng.randrange(num_clients),
            kind=kind,
            count=rng.randint(5, 10) if kind == "group-write" else rng.randint(6, 14),
            start_ms=round(rng.uniform(0.0, 10.0), 3),
            gap_ms=round(rng.uniform(1.5, 4.0), 3),
            seed=rng.randrange(1 << 31),
            read_only_fraction=round(rng.uniform(0.2, 0.5), 3),
            local_fraction=round(rng.uniform(0.1, 0.4), 3),
            distribution=rng.choice(("uniform", "zipfian")),
            zipf_theta=rng.choice((0.7, 0.9, 0.99)),
            group=rng.randrange(len(groups)),
        )

    # Always at least one writer and one reader of the co-written groups.
    segments.append(draw_segment("group-write"))
    segments.append(draw_segment("group-read"))
    for _ in range(rng.randint(2, 5)):
        segments.append(
            draw_segment(
                rng.choices(SEGMENT_KINDS, weights=(0.5, 0.2, 0.15, 0.15))[0]
            )
        )

    faults: List[FaultEvent] = []
    #: Per partition, when the currently planned crash window ends (at most
    #: ``f = 1`` member of a cluster may be down at any moment).
    crash_free_at: Dict[int, float] = {}
    cluster_size = 3 * config.fault_tolerance + 1
    for _ in range(rng.randint(1, 4)):
        kinds = ["crash", "drop", "delay"]
        weights = [0.4, 0.25, 0.15]
        if plans_leader_kills:
            kinds.append("leader-kill")
            weights.append(0.3)
        if edge_enabled:
            kinds.append("byzantine-proxy")
            weights.append(0.25)
        kind = rng.choices(kinds, weights=weights)[0]
        at_ms = round(rng.uniform(3.0, 25.0), 3)
        if kind in ("crash", "leader-kill"):
            partition = rng.randrange(config.num_partitions)
            duration = round(rng.uniform(15.0, 40.0), 3)
            earliest = crash_free_at.get(partition, 0.0)
            if at_ms <= earliest:
                at_ms = round(earliest + rng.uniform(2.0, 6.0), 3)
            crash_free_at[partition] = at_ms + duration
            faults.append(
                FaultEvent(
                    at_ms=at_ms,
                    kind=kind,
                    partition=partition,
                    replica_index=rng.randint(1, cluster_size - 1),
                    duration_ms=duration,
                )
            )
        elif kind == "drop":
            # Main-stream draws happen unconditionally (and in the historical
            # order) so the choice of target cannot shift later draws.
            client = rng.randrange(num_clients)
            direction = rng.choice(("to-core", "from-core"))
            probability = round(rng.uniform(0.1, 0.35), 3)
            duration_ms = round(rng.uniform(10.0, 30.0), 3)
            if side.random() < 0.5:
                faults.append(
                    FaultEvent(
                        at_ms=at_ms,
                        kind="drop",
                        target="core",
                        partition=side.randrange(config.num_partitions),
                        probability=probability,
                        duration_ms=duration_ms,
                    )
                )
            else:
                faults.append(
                    FaultEvent(
                        at_ms=at_ms,
                        kind="drop",
                        client=client,
                        direction=direction,
                        probability=probability,
                        duration_ms=duration_ms,
                    )
                )
        elif kind == "delay":
            faults.append(
                FaultEvent(
                    at_ms=at_ms,
                    kind="delay",
                    probability=round(rng.uniform(0.1, 0.3), 3),
                    extra_ms=round(rng.uniform(1.0, 6.0), 3),
                    duration_ms=round(rng.uniform(10.0, 30.0), 3),
                )
            )
        else:  # byzantine-proxy
            faults.append(
                FaultEvent(
                    at_ms=at_ms,
                    kind="byzantine-proxy",
                    proxy=rng.randrange(config.edge_num_proxies),
                    behaviour=rng.choice(
                        ("tampered-value", "tampered-proof", "stale-header")
                    ),
                )
            )
    faults.sort(key=lambda event: event.at_ms)

    return ChaosPlan(
        seed=seed,
        config=config,
        num_clients=num_clients,
        groups=tuple(tuple(group) for group in groups),
        segments=tuple(segments),
        faults=tuple(faults),
    )
