"""Hash partitioning of keys across clusters.

The paper distributes the 1M-key space uniformly across the 5 clusters using
hashing (Section 5.1).  The partitioner here uses a stable digest (not
Python's randomised ``hash``) so that every node, client and test agrees on
key placement, and offers helpers to group a transaction's footprint by
partition — the basic operation behind deciding whether a transaction is
local or distributed.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Mapping, Set, TypeVar

from repro.common.errors import ConfigurationError
from repro.common.ids import PartitionId
from repro.common.types import Key

ValueT = TypeVar("ValueT")


class HashPartitioner:
    """Maps keys to partitions with a stable hash."""

    def __init__(self, num_partitions: int) -> None:
        if num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        self._num_partitions = num_partitions
        # Placement is a pure function of the key: hash each key once
        # (bounded by the key space).
        self._placement: Dict[Key, PartitionId] = {}

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def partition_of(self, key: Key) -> PartitionId:
        """Partition owning ``key``."""
        partition = self._placement.get(key)
        if partition is None:
            digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
            partition = int.from_bytes(digest, "big") % self._num_partitions
            self._placement[key] = partition
        return partition

    def group_keys(self, keys: Iterable[Key]) -> Dict[PartitionId, Set[Key]]:
        """Group ``keys`` by owning partition."""
        grouped: Dict[PartitionId, Set[Key]] = {}
        for key in keys:
            grouped.setdefault(self.partition_of(key), set()).add(key)
        return grouped

    def group_items(
        self, items: Mapping[Key, ValueT]
    ) -> Dict[PartitionId, Dict[Key, ValueT]]:
        """Group a key-value mapping by owning partition."""
        grouped: Dict[PartitionId, Dict[Key, ValueT]] = {}
        for key, value in items.items():
            grouped.setdefault(self.partition_of(key), {})[key] = value
        return grouped
