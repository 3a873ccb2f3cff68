"""Verified per-partition cache of an edge proxy.

The cache keeps, per partition, one *context*: a certified batch header plus
``key → (value, version, proof)`` entries whose proofs all verify against
that header's Merkle root.  Keeping every entry of a context proven against
the *same* header is what lets a whole partition section be handed to a
client as-is — a client verifies a section exactly like a core round-1 reply,
so mixing proofs from different roots would just produce a section the
client rejects.

Staleness is bounded two ways:

* **header lag** — the proxy tracks the newest certified header it has seen
  per partition (fetches and :class:`~repro.edge.messages.HeaderAnnouncement`
  both advance it); a context trailing that header by more than
  ``max_header_lag_batches`` is dropped, forcing a refresh from the core;
* **TTL** — entries older than ``ttl_ms`` of simulated time are dropped,
  which bounds staleness even when no announcements arrive (e.g. a
  partitioned proxy).

Capacity is bounded per partition with LRU eviction.  The cache is a plain
data structure (no network access) so it can be unit-tested in isolation;
:class:`~repro.edge.proxy.EdgeProxy` owns one and fills it from the core.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.common.ids import BatchNumber, PartitionId
from repro.common.types import Key, Value
from repro.core.batch import CertifiedHeader
from repro.crypto.merkle import MerkleProof
from repro.edge.messages import PartitionSection


@dataclass
class CacheEntry:
    """One cached key: its value, version and proof under the context header."""

    value: Value
    version: BatchNumber
    proof: MerkleProof
    cached_at_ms: float


@dataclass
class _PartitionContext:
    """All cached entries of one partition, proven against one header."""

    header: CertifiedHeader
    entries: "OrderedDict[Key, CacheEntry]" = field(default_factory=OrderedDict)


@dataclass
class EdgeCacheStats:
    """Counters scraped by the proxy and aggregated system-wide."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    stale_drops: int = 0
    ttl_drops: int = 0


class EdgeCache:
    """Per-partition verified read cache with LRU, TTL and lag bounds."""

    def __init__(
        self,
        capacity_per_partition: int,
        ttl_ms: Optional[float] = None,
        max_header_lag_batches: int = 8,
    ) -> None:
        if capacity_per_partition < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity_per_partition
        self._ttl_ms = ttl_ms
        self._max_lag = max_header_lag_batches
        self._contexts: Dict[PartitionId, _PartitionContext] = {}
        self._latest_numbers: Dict[PartitionId, BatchNumber] = {}
        self.stats = EdgeCacheStats()

    # -- header tracking -----------------------------------------------------

    def note_header(self, partition: PartitionId, header: CertifiedHeader) -> None:
        """Record that ``header`` is the newest certified batch seen for ``partition``."""
        current = self._latest_numbers.get(partition)
        if current is None or header.number > current:
            self._latest_numbers[partition] = header.number

    def latest_number(self, partition: PartitionId) -> Optional[BatchNumber]:
        return self._latest_numbers.get(partition)

    # -- lookups ---------------------------------------------------------------

    def lookup(
        self, partition: PartitionId, keys: Iterable[Key], now_ms: float
    ) -> Optional[PartitionSection]:
        """A complete verified section for ``keys``, or None on any miss.

        Partial hits count as misses: the proxy refetches the partition's
        whole requested key set so the resulting section stays proven against
        a single header.
        """
        keys = tuple(keys)
        context = self._usable_context(partition, now_ms)
        if context is None or any(key not in context.entries for key in keys):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        values: Dict[Key, Value] = {}
        versions: Dict[Key, BatchNumber] = {}
        proofs: Dict[Key, MerkleProof] = {}
        for key in keys:
            entry = context.entries[key]
            context.entries.move_to_end(key)
            values[key] = entry.value
            versions[key] = entry.version
            proofs[key] = entry.proof
        return PartitionSection(
            partition=partition,
            values=values,
            versions=versions,
            proofs=proofs,
            header=context.header,
        )

    def _usable_context(
        self, partition: PartitionId, now_ms: float
    ) -> Optional[_PartitionContext]:
        context = self._contexts.get(partition)
        if context is None:
            return None
        latest = self._latest_numbers.get(partition)
        if latest is not None and latest - context.header.number > self._max_lag:
            # Too far behind the announced tip: refresh before serving again.
            self.stats.stale_drops += 1
            del self._contexts[partition]
            return None
        if self._ttl_ms is not None:
            fresh = OrderedDict(
                (key, entry)
                for key, entry in context.entries.items()
                if now_ms - entry.cached_at_ms <= self._ttl_ms
            )
            self.stats.ttl_drops += len(context.entries) - len(fresh)
            context.entries = fresh
        return context

    # -- admission ---------------------------------------------------------------

    def admit(
        self,
        partition: PartitionId,
        header: CertifiedHeader,
        values: Dict[Key, Value],
        versions: Dict[Key, BatchNumber],
        proofs: Dict[Key, MerkleProof],
        now_ms: float,
    ) -> None:
        """Cache a verified core reply for ``partition``.

        Entries merge into the existing context when the header matches;
        a newer header replaces the context wholesale (old proofs do not
        verify against the new root); an older header is ignored.
        """
        context = self._contexts.get(partition)
        if context is not None and header.number < context.header.number:
            return
        if context is None or header.number > context.header.number:
            context = _PartitionContext(header=header)
            self._contexts[partition] = context
        for key, value in values.items():
            proof = proofs.get(key)
            if proof is None:
                continue
            context.entries[key] = CacheEntry(
                value=value,
                version=versions.get(key, -1),
                proof=proof,
                cached_at_ms=now_ms,
            )
            context.entries.move_to_end(key)
        while len(context.entries) > self._capacity:
            context.entries.popitem(last=False)
            self.stats.evictions += 1
        self.note_header(partition, header)

    # -- maintenance --------------------------------------------------------------

    def cached_keys(self, partition: PartitionId) -> Tuple[Key, ...]:
        """Keys currently cached for ``partition`` (the proxy's working set).

        Used to *refresh-batch*: when a miss forces a core fetch anyway, the
        proxy asks for the working set too, so the fresh header arrives with
        proofs for everything it already serves and the context survives
        header churn instead of shrinking back to the requested keys.
        """
        context = self._contexts.get(partition)
        if context is None:
            return ()
        return tuple(context.entries)

    def entry_count(self, partition: Optional[PartitionId] = None) -> int:
        if partition is not None:
            context = self._contexts.get(partition)
            return len(context.entries) if context is not None else 0
        return sum(len(context.entries) for context in self._contexts.values())

    def hit_rate(self) -> float:
        total = self.stats.hits + self.stats.misses
        return self.stats.hits / total if total else 0.0
