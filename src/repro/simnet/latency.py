"""Latency models for the simulated edge network.

The GEDM setting of the paper has three qualitatively different link types:

* links between replicas of the *same* cluster (machines in one edge/micro
  datacentre) — sub-millisecond;
* links between *different* clusters — wide-area, a few milliseconds plus a
  configurable "additional latency" that the paper sweeps to emulate
  geo-distribution (Figures 8, 12, 13);
* links between a client and a cluster — the client is placed next to one
  "home" partition and pays the wide-area cost to reach the others;
* links between a client and an *edge proxy* (``repro.edge``) — a proxy in
  the client's own region is one short hop away
  (``LatencyConfig.client_to_edge_ms``), which is what makes edge-served
  reads cheaper than a round trip to the far core; a proxy itself pays the
  client-to-cluster (wide-area) cost to reach core replicas.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Protocol, Tuple

from repro.common.config import LatencyConfig
from repro.common.ids import ClientId, EdgeProxyId, NodeId, PartitionId, ReplicaId


class LatencyModel(Protocol):
    """Computes the one-way delay of a message between two nodes."""

    def delay_ms(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        """One-way message delay from ``src`` to ``dst`` in milliseconds."""
        ...  # pragma: no cover - protocol definition


def client_home_partition(client: ClientId, num_partitions: int) -> PartitionId:
    """Deterministically place a client next to one partition's cluster."""
    return sum(client.name.encode("utf-8")) % max(1, num_partitions)


def proxy_region(proxy: EdgeProxyId, num_partitions: int) -> PartitionId:
    """Deterministically place an edge proxy in one partition's region.

    Proxies are dealt round-robin over the regions, so any proxy count covers
    the deployment and clients can find a same-region proxy whenever
    ``num_proxies >= num_partitions`` (and often sooner).
    """
    return proxy.index % max(1, num_partitions)


class EdgeLatencyModel:
    """Latency model matching the deployment described in Section 5.1.

    A link's base delay depends only on the kinds and regions of its two
    endpoints and on the (frozen) config, so it is worked out once per
    ``(src, dst)`` pair; each call then draws its one jitter sample.
    """

    def __init__(self, config: LatencyConfig, num_partitions: int) -> None:
        self._config = config
        self._num_partitions = num_partitions
        self._base_ms: Dict[Tuple[NodeId, NodeId], float] = {}

    def _partition_of(self, node: NodeId) -> PartitionId:
        if isinstance(node, ReplicaId):
            return node.partition
        if isinstance(node, EdgeProxyId):
            return proxy_region(node, self._num_partitions)
        return client_home_partition(node, self._num_partitions)

    def _link_base_ms(self, src: NodeId, dst: NodeId) -> float:
        config = self._config
        same_partition = self._partition_of(src) == self._partition_of(dst)
        wan = config.inter_cluster_ms + config.inter_cluster_extra_ms
        endpoints = {type(src), type(dst)}
        if endpoints == {ReplicaId}:
            return config.intra_cluster_ms if same_partition else wan
        if endpoints == {ClientId, EdgeProxyId}:
            # Client <-> edge proxy: the near-edge link.  A same-region proxy
            # is one short hop away; one in another region still costs the WAN.
            base = config.client_to_edge_ms
        else:
            # Clients and proxies pay the client-to-cluster cost towards the
            # core; a proxy is "a client of the core" as far as links go.
            base = config.client_to_cluster_ms
        return base if same_partition else base + wan

    def delay_ms(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        link = (src, dst)
        base = self._base_ms.get(link)
        if base is None:
            base = self._base_ms[link] = self._link_base_ms(src, dst)
        fraction = self._config.jitter_fraction
        if fraction <= 0 or base <= 0:
            return base
        return base * (1.0 + rng.uniform(-fraction, fraction))


class FixedLatencyModel:
    """Constant delay for every link; handy in unit tests."""

    def __init__(self, delay_ms: float = 1.0) -> None:
        self._delay_ms = delay_ms

    def delay_ms(self, src: NodeId, dst: NodeId, rng: random.Random) -> float:
        return self._delay_ms


class ZeroLatencyModel(FixedLatencyModel):
    """Messages arrive instantaneously (pure protocol-logic tests)."""

    def __init__(self) -> None:
        super().__init__(0.0)


def build_latency_model(
    config: LatencyConfig,
    num_partitions: int,
    override: Optional[LatencyModel] = None,
) -> LatencyModel:
    """Return ``override`` when provided, else the standard edge model."""
    if override is not None:
        return override
    return EdgeLatencyModel(config, num_partitions)
