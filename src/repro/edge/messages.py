"""Messages of the edge read-proxy tier.

Two small protocols:

* **client ↔ proxy** — a client sends an :class:`EdgeReadRequest` for the
  whole key set of a snapshot read-only transaction; the proxy answers with
  one :class:`PartitionSection` per accessed partition, each shaped exactly
  like a core round-1 reply (values, versions, Merkle proofs, certified
  header).  The client verifies every section exactly as it verifies a core
  reply — the proxy adds no trust, only proximity.
* **core leader → proxy** — a :class:`HeaderAnnouncement` pushes a freshly
  certified batch header so the proxy knows how stale its cached contexts
  are; announcements carry no data and are verified against the cluster's
  signatures before adoption.

As for every message, a field's annotation is its shape check
(:mod:`repro.common.shapes`), down to each section's proofs and header.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.ids import BatchNumber, PartitionId
from repro.common.types import Key, Value
from repro.core.batch import CertifiedHeader
from repro.crypto.merkle import MerkleProof
from repro.simnet.messages import Message, ReplyMessage, RequestMessage


@dataclass
class PartitionSection:
    """One partition's share of an edge read reply (round-1 reply shape)."""

    partition: PartitionId
    values: Dict[Key, Value] = field(default_factory=dict)
    versions: Dict[Key, BatchNumber] = field(default_factory=dict)
    proofs: Dict[Key, MerkleProof] = field(default_factory=dict)
    header: Optional[CertifiedHeader] = None


@dataclass
class EdgeReadRequest(RequestMessage):
    """Client → proxy: serve a snapshot read over ``keys`` from your cache."""

    keys: Tuple[Key, ...] = ()


@dataclass
class EdgeReadReply(ReplyMessage):
    """Proxy → client: per-partition sections, each independently verifiable.

    ``from_cache`` records which partitions were served from the proxy's
    cache (vs. fetched from the core on a miss); it is bookkeeping only —
    clients never trust it, they verify the sections either way.
    """

    sections: Dict[PartitionId, PartitionSection] = field(default_factory=dict)
    from_cache: Tuple[PartitionId, ...] = ()


@dataclass
class HeaderAnnouncement(Message):
    """Core leader → proxies: a new batch header was certified (no payload)."""

    partition: PartitionId = 0
    header: Optional[CertifiedHeader] = None
