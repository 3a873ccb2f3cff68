"""The untrusted edge read proxy.

An :class:`EdgeProxy` is a :class:`~repro.simnet.proc.ProcessNode` placed in
one region of the simulated edge network (see
:func:`~repro.simnet.latency.proxy_region`).  Clients in the same region
reach it over the short near-edge link; the proxy pays the wide-area cost to
reach core clusters, exactly once per cache miss instead of once per read.

Serving a read:

1. group the requested keys by partition;
2. answer each partition from the cache when a complete, fresh context is
   available (all keys proven against one certified header, within the
   header-lag and TTL bounds);
3. on a miss, fetch the partition's keys from the core cluster's leader with
   a regular :class:`~repro.core.messages.ReadOnlyRequest`, verify the reply
   (an honest proxy does not cache garbage) and admit it;
4. run the CD-vector consistency check over the assembled sections; any
   partition with an unsatisfied dependency is refetched fresh from the core
   once — cheap proxy-side repair that usually spares the client a round 2;
5. reply with the per-partition sections.

Trust model: the proxy is *untrusted*.  Everything it returns is
self-certifying (Merkle proofs against quorum-certified headers) and clients
re-verify all of it, so a byzantine or stale proxy can only be caught —
never believed.  The :mod:`repro.edge.byzantine` behaviours plug in here to
exercise exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.common.config import SystemConfig
from repro.common.ids import EdgeProxyId, NodeId, PartitionId
from repro.common.types import Key
from repro.core.messages import ReadOnlyReply, ReadOnlyRequest
from repro.core.readonly import PartitionSnapshot, find_unsatisfied_dependencies, verify_snapshot
from repro.core.topology import ClusterTopology
from repro.edge.messages import (
    EdgeReadReply,
    EdgeReadRequest,
    HeaderAnnouncement,
    PartitionSection,
)
from repro.edge.cache import EdgeCache
from repro.simnet.messages import Message
from repro.simnet.node import SimEnvironment
from repro.simnet.proc import REFUSED, Call, Gather, ProcessNode
from repro.storage.partitioner import HashPartitioner

#: Cached entries per partition per proxy (LRU).
_CACHE_CAPACITY = 256
#: How long (simulated ms) a proxy waits for a core replica on a cache miss.
_FETCH_TIMEOUT_MS = 20_000.0


@dataclass
class ProxyCounters:
    """Per-proxy counters, aggregated into ``SystemCounters``."""

    reads_served: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    core_fetches: int = 0
    refresh_rounds: int = 0
    announcements_received: int = 0


class ProxyBehaviour:
    """Hook a proxy's reply passes through; the honest default is identity.

    Byzantine behaviours (:mod:`repro.edge.byzantine`) override
    :meth:`mutate` to tamper with sections before they leave the proxy.
    """

    name = "honest"

    def mutate(
        self,
        proxy: "EdgeProxy",
        request: EdgeReadRequest,
        sections: Dict[PartitionId, PartitionSection],
    ) -> Dict[PartitionId, PartitionSection]:
        return sections


class EdgeProxy(ProcessNode):
    """One untrusted read proxy between clients and the core clusters."""

    def __init__(
        self,
        node_id: EdgeProxyId,
        env: SimEnvironment,
        topology: ClusterTopology,
        partitioner: HashPartitioner,
        behaviour: Optional[ProxyBehaviour] = None,
    ) -> None:
        super().__init__(node_id, env)
        self.config: SystemConfig = env.config
        self.topology = topology
        self.partitioner = partitioner
        self.counters = ProxyCounters()
        self.behaviour = behaviour or ProxyBehaviour()
        edge = self.config.edge
        self.cache = EdgeCache(
            capacity_per_partition=_CACHE_CAPACITY,
            ttl_ms=edge.cache_ttl_ms,
            max_header_lag_batches=edge.max_header_lag_batches,
        )
        self.register_handler(EdgeReadRequest, self._on_edge_read)
        self.register_handler(HeaderAnnouncement, self._on_announcement)

    # ------------------------------------------------------------------
    # processing-cost model
    # ------------------------------------------------------------------

    def processing_cost_ms(self, message: Message) -> float:
        costs = self.config.costs
        if isinstance(message, EdgeReadRequest):
            # Serving from cache is a plain lookup per key; proofs are stored,
            # not recomputed, so no per-level Merkle charge applies.
            return costs.message_handling_ms + len(message.keys) * costs.read_op_ms
        if isinstance(message, HeaderAnnouncement):
            return costs.signature_verify_ms
        if isinstance(message, ReadOnlyReply):
            return costs.message_handling_ms + len(message.values) * costs.read_op_ms
        return costs.message_handling_ms

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_edge_read(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, EdgeReadRequest)
        self.spawn(self._serve(message, src), name=f"serve-{message.request_id}")

    def _on_announcement(self, message: Message, src: NodeId) -> None:
        assert isinstance(message, HeaderAnnouncement)
        header = message.header
        if header is None or header.partition != message.partition:
            return
        # Announcements steer cache refreshes; verifying them keeps a
        # byzantine core leader from inflating this proxy's idea of "newest"
        # (which would needlessly churn its cache).
        if not header.verify(
            self.verifier,
            self.topology.members(header.partition),
            self.config.certificate_size,
        ):
            self.env.obs.event(
                str(self.node_id),
                "edge-announcement-rejected",
                "warn",
                {"partition": int(message.partition)},
            )
            return
        self.counters.announcements_received += 1
        self.cache.note_header(message.partition, header)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def _serve(
        self, message: EdgeReadRequest, src: NodeId
    ) -> Generator[object, object, None]:
        grouped = self.partitioner.group_keys(message.keys)
        sections: Dict[PartitionId, PartitionSection] = {}
        from_cache: List[PartitionId] = []
        hits: Dict[PartitionId, PartitionSection] = {}
        for partition in sorted(grouped):
            keys = tuple(sorted(grouped[partition]))
            section = self.cache.lookup(partition, keys, now_ms=self.now)
            if section is not None:
                hits[partition] = section
        # A hit only counts when the cached section is actually served: a
        # partial hit is refetched below, so charging it as a hit would
        # inflate the rate fig_edge reports (and CI gates on).
        if len(hits) == len(grouped):
            self.counters.cache_hits += len(hits)
            # Fully cached: serve locally.  Contexts admitted together (every
            # fetch refreshes all accessed partitions' working sets in one
            # round) stay mutually CD-consistent, so this almost never needs
            # the repair round below.
            sections.update(hits)
            from_cache.extend(hits)
        else:
            self.counters.cache_misses += len(grouped)
            # Any miss refetches *all* accessed partitions in one parallel
            # round: mixing a fresh header with lagging cached contexts would
            # just fail the CD check and cost a second core round anyway.
            fetched = yield from self._fetch_many(grouped, sorted(grouped))
            sections.update(fetched)
        # CD-vector consistency check over the assembled sections: refetch
        # lagging partitions once so the client usually gets a mutually
        # consistent snapshot without its own dependency-repair round.
        required = self._unsatisfied(grouped, sections)
        if required:
            self.counters.refresh_rounds += 1
            self.env.obs.event(
                str(self.node_id),
                "edge-refresh",
                "info",
                {"partitions": sorted(int(p) for p in required)},
            )
            fresh = yield from self._fetch_many(grouped, sorted(required))
            for partition, section in fresh.items():
                sections[partition] = section
                if partition in from_cache:
                    from_cache.remove(partition)
        sections = self.behaviour.mutate(self, message, sections)
        self.counters.reads_served += 1
        self.send(
            src,
            EdgeReadReply(
                request_id=message.request_id,
                sections=sections,
                from_cache=tuple(from_cache),
            ),
        )

    def _fetch_many(
        self,
        grouped: Dict[PartitionId, List[Key]],
        partitions: List[PartitionId],
    ) -> Generator[object, object, Dict[PartitionId, PartitionSection]]:
        """Fill misses from the core clusters — one parallel round for all.

        Each request also *refresh-batches*: it asks for the partition's
        cached working set alongside the missed keys, so the reply's fresh
        header comes with proofs for everything already cached and the
        context survives header churn at the cost of zero extra round trips.
        """
        if not partitions:
            return {}
        calls = []
        for partition in partitions:
            fetch_keys = set(grouped[partition])
            budget = _CACHE_CAPACITY - len(fetch_keys)
            if budget > 0:
                fetch_keys.update(self.cache.cached_keys(partition)[:budget])
            calls.append(
                Call(
                    self.topology.leader(partition),
                    ReadOnlyRequest(keys=tuple(sorted(fetch_keys))),
                )
            )
        replies = yield Gather(calls, timeout_ms=_FETCH_TIMEOUT_MS)
        sections: Dict[PartitionId, PartitionSection] = {}
        for partition, reply in zip(partitions, replies):
            section = self._admit_reply(
                partition, tuple(sorted(grouped[partition])), reply
            )
            if section is not None:
                sections[partition] = section
        return sections

    def _admit_reply(
        self, partition: PartitionId, requested: Tuple[Key, ...], reply: object
    ) -> Optional[PartitionSection]:
        """Verify a core reply, cache it, and cut the requested-keys section."""
        refused = reply is REFUSED  # malformed
        if not (refused or isinstance(reply, ReadOnlyReply) and reply.header is not None):
            return None
        self.counters.core_fetches += 1
        # No staleness bound here (now_ms=None): freshness is the *client's*
        # policy; the proxy only refuses responses that are provably forged.
        # Nothing of a refused reply is read or relayed: the client falls
        # back to the core for that partition.
        if refused or not verify_snapshot(
            PartitionSnapshot.of(partition, tuple(sorted(reply.values)), reply),
            self.verifier,
            self.topology,
            self.config,
        ):
            self.env.obs.event(
                str(self.node_id),
                "edge-reply-rejected",
                "warn",
                {"partition": int(partition)},
            )
            return None
        self.cache.admit(
            partition,
            reply.header,
            dict(reply.values),
            dict(reply.versions),
            dict(reply.proofs),
            now_ms=self.now,
        )
        return PartitionSection(
            partition=partition,
            values={key: reply.values[key] for key in requested if key in reply.values},
            versions={key: reply.versions[key] for key in requested if key in reply.versions},
            proofs={key: reply.proofs[key] for key in requested if key in reply.proofs},
            header=reply.header,
        )

    def _unsatisfied(
        self,
        grouped: Dict[PartitionId, List[Key]],
        sections: Dict[PartitionId, PartitionSection],
    ) -> Dict[PartitionId, int]:
        snapshots = {
            partition: PartitionSnapshot.of(partition, tuple(sorted(grouped[partition])), section)
            for partition, section in sections.items()
        }
        return find_unsatisfied_dependencies(snapshots)
