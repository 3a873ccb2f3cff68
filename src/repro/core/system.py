"""Full-system assembly: build a simulated TransEdge deployment.

:class:`TransEdgeSystem` is the top-level entry point of the library.  It
creates the shared simulation environment, the clusters of partition
replicas with their preloaded data, the topology directory and any number of
clients, and exposes helpers to run the simulation and to collect
system-wide statistics.  Examples and the benchmark harness are thin layers
over this class.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

from repro.common.config import SystemConfig
from repro.common.ids import EdgeProxyId, PartitionId, ReplicaId
from repro.common.types import Key, Value
from repro.core.client import TransEdgeClient
from repro.core.replica import PartitionReplica, ReplicaCounters
from repro.core.topology import ClusterTopology
from repro.edge.proxy import EdgeProxy
from repro.obs.monitor import Monitor
from repro.recovery.snapshot import PartitionGenesis
from repro.simnet.faults import FaultInjector
from repro.simnet.node import SimEnvironment
from repro.storage.partitioner import HashPartitioner


def generate_initial_data(config: SystemConfig) -> Dict[Key, Value]:
    """Generate the preloaded key space described in Section 5.1.

    Keys are short identifiers hashed across partitions; values are opaque
    byte strings of the configured size.
    """
    rng = random.Random(config.seed)
    data: Dict[Key, Value] = {}
    prefix_size = min(config.value_size, 16)
    for index in range(config.initial_keys):
        key = f"key-{index:08d}"
        # Values are padded to the configured size; only a small random prefix
        # is unique, which keeps data generation cheap without changing sizes.
        data[key] = rng.randbytes(prefix_size).ljust(config.value_size, b"\x00")
    return data


@dataclass
class SystemCounters(ReplicaCounters):
    """Deployment-wide counters: every :class:`ReplicaCounters` field summed
    over the replicas, plus the cache and edge-tier totals."""

    verify_cache_hits: int = 0
    verify_cache_misses: int = 0
    # Edge read-proxy tier (summed over the deployment's proxies).
    edge_reads_served: int = 0
    edge_cache_hits: int = 0
    edge_cache_misses: int = 0
    edge_core_fetches: int = 0
    edge_refresh_rounds: int = 0
    edge_announcements_received: int = 0


_REPLICA_COUNTER_NAMES = tuple(field.name for field in fields(ReplicaCounters))


class TransEdgeSystem:
    """A complete simulated deployment: clusters, replicas, clients."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        initial_data: Optional[Mapping[Key, Value]] = None,
    ) -> None:
        self.config = (config or SystemConfig()).validate()
        self.env = SimEnvironment(self.config)
        self.partitioner = HashPartitioner(self.config.num_partitions)
        self.topology = ClusterTopology(self.config)
        #: The preloaded key space (read-only: replicas alias its values).
        self.initial_data: Mapping[Key, Value] = MappingProxyType(
            dict(initial_data) if initial_data is not None else generate_initial_data(self.config)
        )
        # Every member of a cluster starts from the same bytes: sort and hash
        # each partition's share once and hand all 3f+1 replicas that genesis.
        data_by_partition = self.partitioner.group_items(self.initial_data)
        self._genesis: Dict[PartitionId, PartitionGenesis] = {
            partition: PartitionGenesis.build(partition, data_by_partition.get(partition, {}))
            for partition in self.topology.partitions()
        }

        self.replicas: Dict[ReplicaId, PartitionReplica] = {}
        for partition, genesis in self._genesis.items():
            for replica_id in self.topology.members(partition):
                self.replicas[replica_id] = PartitionReplica(
                    node_id=replica_id,
                    env=self.env,
                    topology=self.topology,
                    partitioner=self.partitioner,
                    initial_data=genesis,
                )

        # Edge read-proxy tier (repro.edge): untrusted proxies between the
        # clients and the core clusters, spawned only when configured.
        self.proxies: List[EdgeProxy] = []
        if self.config.edge.enabled:
            for index in range(self.config.edge.num_proxies):
                self.proxies.append(
                    EdgeProxy(
                        EdgeProxyId(index),
                        self.env,
                        self.topology,
                        self.partitioner,
                    )
                )
            announce_targets = tuple(proxy.node_id for proxy in self.proxies)
            for replica in self.replicas.values():
                replica.edge_announce_targets = announce_targets

        self.clients: List[TransEdgeClient] = []
        self.fault_injector = FaultInjector(self.env.network, seed=self.config.seed + 2)

        #: Live monitor (repro.obs.monitor), or ``None`` when disabled.  It
        #: is installed *before* the genesis bootstrap so the timeline's
        #: initial snapshot is the true zero point and even bootstrap
        #: activity windows correctly.  The monitor only reads counters and
        #: subscribes to streams that already exist, so enabling it leaves
        #: fingerprints and trace digests byte-identical.
        self.monitor: Optional[Monitor] = None
        if self.config.monitor.enabled:
            self.monitor = Monitor(
                self.config.monitor,
                self.monitor_snapshot,
                leader_of=lambda partition: str(
                    self.topology.leader(PartitionId(partition))
                ),
            )
            self.monitor.bind_tracer(self.env.obs.tracer)
            self.env.monitor = self.monitor
            self.env.obs.attach_monitor(self.monitor)

        # Bootstrap: every cluster writes its genesis batch (number 0), which
        # certifies the Merkle root of the preloaded data so that read-only
        # clients can verify responses from the very first request.
        for partition in self.topology.partitions():
            self.leader_replica(partition).leader_role.propose_genesis()
        self.env.simulator.run_until_idle()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def create_client(self, name: str, **client_kwargs) -> TransEdgeClient:
        """Create a client attached to this deployment's network.

        ``client_kwargs`` pass through to :class:`TransEdgeClient` (e.g.
        ``commit_timeout_ms`` — fault experiments shorten it so a client
        stuck on a crashed leader complains, and thereby triggers the
        automatic view change, sooner).
        """
        if self.proxies and "edge_proxies" not in client_kwargs:
            client_kwargs["edge_proxies"] = tuple(p.node_id for p in self.proxies)
        client = TransEdgeClient(
            name=name,
            env=self.env,
            topology=self.topology,
            partitioner=self.partitioner,
            **client_kwargs,
        )
        self.clients.append(client)
        return client

    def leader_replica(self, partition: PartitionId) -> PartitionReplica:
        return self.replicas[self.topology.leader(partition)]

    def cluster_replicas(self, partition: PartitionId) -> List[PartitionReplica]:
        return [self.replicas[member] for member in self.topology.members(partition)]

    def keys_of_partition(self, partition: PartitionId) -> List[Key]:
        """Preloaded keys owned by ``partition`` (sorted, deterministic)."""
        genesis = self._genesis.get(partition)
        return list(genesis.tree.keys()) if genesis is not None else []

    # ------------------------------------------------------------------
    # crash faults and recovery (see repro.recovery)
    # ------------------------------------------------------------------

    def crash_replica(self, replica_id: ReplicaId) -> PartitionReplica:
        """Crash ``replica_id``: it stops processing and its traffic is dropped.

        Crashing the current leader of a cluster is detected automatically:
        survivors' progress monitors (armed by in-flight instances, undecided
        2PC groups or client complaints) vote the dead leader out and the
        cluster rotates to the next view without operator action.
        """
        replica = self.replicas[replica_id]
        if not replica.crashed:
            replica.crashed = True
            replica.obs_event("replica-crash", "error")
            self.fault_injector.crash(replica_id)
        return replica

    def restart_replica(self, replica_id: ReplicaId) -> PartitionReplica:
        """Restart a crashed replica with empty volatile state and recover it.

        The replica rejoins through state transfer: it fetches the latest
        stable checkpoint plus the log suffix from its peers and resumes
        participating in consensus once they are verified and installed.
        """
        replica = self.replicas[replica_id]
        self.fault_injector.restart(replica_id)
        replica.crashed = False
        replica.obs_event("replica-restart", "info")
        replica.reset_for_recovery()
        replica.begin_recovery()
        return replica

    def stranded_prepared_transactions(self) -> int:
        """Distinct distributed transactions still prepared-but-undecided.

        After a drained run this should be zero: a coordinator crash at any
        2PC phase is resolved by the automatic view change plus decision
        replication (``DecisionQuery``), so no participant stays wedged in
        ``prepared``.  Counted per transaction (not per replica) so the value
        reads as "transactions whose fate is unknown somewhere".
        """
        stranded = set()
        for replica in self.replicas.values():
            if replica.crashed:
                continue  # moot until it rejoins (state transfer resolves it)
            for txn_id, _record in replica.prepared_batches.pending_transactions():
                stranded.add(txn_id)
        return len(stranded)

    def cache_snapshot(self, record_event: bool = False) -> Dict[str, object]:
        """One unified point-in-time view of every cache in the deployment.

        This is the single source of cache accounting: the cache fields of
        :meth:`counters`, the monitor's sampling and the benchmark harness's
        notes all read it instead of walking the nodes themselves.  Per-node
        ``{"hits", "misses"}`` entries sit under ``verify_replicas``,
        ``verify_clients`` and ``edge``, their sums under ``totals``.
        With ``record_event`` the totals are also written to the
        observability flight recorder (one ``cache-snapshot`` event).
        """

        def section(pairs) -> Dict[str, Dict[str, int]]:
            return {name: {"hits": hits, "misses": misses} for name, (hits, misses) in pairs}

        def totals(entries: Dict[str, Dict[str, int]]) -> Dict[str, int]:
            return {
                "hits": sum(entry["hits"] for entry in entries.values()),
                "misses": sum(entry["misses"] for entry in entries.values()),
            }

        verify_replicas = section(
            (str(replica.node_id), (replica.verifier.cache_hits, replica.verifier.cache_misses))
            for replica in self.replicas.values()
        )
        verify_clients = section(
            (str(client.node_id), (client.verifier.cache_hits, client.verifier.cache_misses))
            for client in self.clients
        )
        edge = section(
            (str(proxy.node_id), (proxy.counters.cache_hits, proxy.counters.cache_misses))
            for proxy in self.proxies
        )
        # Reliable-channel counters ride along: not a cache, but the same
        # "one unified accounting point" contract — the benchmark harness and
        # chaos reports read retransmit/duplicate-drop totals from here.
        snapshot: Dict[str, object] = {
            "verify_replicas": verify_replicas,
            "verify_clients": verify_clients,
            "edge": edge,
            "transport": dict(self.env.reliability.counters),
            "totals": {
                "verify_replicas": totals(verify_replicas),
                "verify_clients": totals(verify_clients),
                "edge": totals(edge),
            },
        }
        # Live node-health states ride along when a monitor is installed —
        # same unified-accounting contract as the transport counters, and
        # what puts "which nodes were degraded" into chaos artifacts.
        if self.monitor is not None:
            snapshot["health"] = self.monitor.health.snapshot()
        if record_event:
            detail = dict(snapshot["totals"])
            if snapshot["transport"]:
                detail["transport"] = dict(snapshot["transport"])
            self.env.obs.event("system", "cache-snapshot", "info", detail)
        return snapshot

    def monitor_snapshot(self) -> Dict[str, object]:
        """Cumulative deployment counters in the timeline's sampling shape.

        This is the ``snapshot_fn`` behind :class:`repro.obs.monitor.Monitor`:
        every value is monotonically non-decreasing and purely *read* from
        the nodes, so windowed deltas telescope exactly (the timeline's sum
        of window deltas always equals final minus initial).
        """
        node_handled: Dict[str, int] = {}
        for replica in self.replicas.values():
            node_handled[str(replica.node_id)] = replica.messages_handled
        for proxy in self.proxies:
            node_handled[str(proxy.node_id)] = proxy.messages_handled
        for client in self.clients:
            node_handled[str(client.node_id)] = client.messages_handled
        return {
            "counters": asdict(self.counters()),
            "transport": dict(self.env.reliability.counters),
            "node_handled": node_handled,
        }

    def max_log_length(self) -> int:
        """Longest SMR log across all replicas (bounded by checkpointing)."""
        return max(len(replica.log) for replica in self.replicas.values())

    def max_version_chain_length(self) -> int:
        """Longest per-key version chain across all replica stores."""
        return max(replica.store.max_chain_length() for replica in self.replicas.values())

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, until_ms: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Advance the simulation; returns the number of processed events."""
        if until_ms is None and max_events is None:
            return self.env.simulator.run_until_idle()
        return self.env.simulator.run(until_ms=until_ms, max_events=max_events)

    def run_until_idle(self, max_events: int = 20_000_000) -> int:
        return self.env.simulator.run_until_idle(max_events=max_events)

    @property
    def now(self) -> float:
        return self.env.simulator.now

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def counters(self) -> SystemCounters:
        """Sum the per-replica counters across the whole deployment.

        Leader-only counters (aborts, read-only requests) are naturally
        dominated by leaders; follower contributions are included because a
        view change can move the leader mid-experiment.
        """
        cache_totals = self.cache_snapshot()["totals"]
        per_replica = [replica.counters for replica in self.replicas.values()]
        total = SystemCounters(
            **{
                name: sum(getattr(counters, name) for counters in per_replica)
                for name in _REPLICA_COUNTER_NAMES
            }
        )
        for proxy in self.proxies:
            total.edge_reads_served += proxy.counters.reads_served
            total.edge_core_fetches += proxy.counters.core_fetches
            total.edge_refresh_rounds += proxy.counters.refresh_rounds
            total.edge_announcements_received += proxy.counters.announcements_received
        # Cache accounting derives from the one unified snapshot (clients'
        # verify caches are reported separately, so only the replica total
        # lands here — unchanged semantics).
        total.verify_cache_hits = cache_totals["verify_replicas"]["hits"]
        total.verify_cache_misses = cache_totals["verify_replicas"]["misses"]
        total.edge_cache_hits = cache_totals["edge"]["hits"]
        total.edge_cache_misses = cache_totals["edge"]["misses"]
        return total

    def committed_read_write(self) -> int:
        """Distinct committed read-write transactions (local + distributed).

        Local commits are counted on every replica of a cluster; dividing by
        the cluster size recovers the per-transaction count.  Distributed
        commits are counted the same way on every accessed cluster, so the
        coordinator-side counter is used instead (committed records carry the
        coordinator id).
        """
        counters = self.counters()
        cluster_size = self.config.cluster_size
        local = counters.local_committed // cluster_size
        distributed = counters.distributed_committed // cluster_size
        return local + distributed
