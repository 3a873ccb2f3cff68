"""Transaction payloads exchanged between clients and clusters.

A :class:`TxnPayload` is the self-contained description of a read-write
transaction that a client ships to the coordinator cluster when it asks to
commit (Section 2, "Interface"): the read set with the versions that were
observed, and the buffered write set.  The same payload travels inside 2PC
messages and batch segments, so it must be canonically encodable for
signing.  Any client or leader may send one, so its annotations are its
shape check (:mod:`repro.common.shapes`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, FrozenSet, Mapping

from repro.common.errors import InvalidTransactionError
from repro.common.ids import BatchNumber, PartitionId
from repro.common.types import Key, MemoisedValue, Value
from repro.crypto.hashing import Encoded
from repro.storage.partitioner import HashPartitioner

_NO_ITEMS: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class Footprint:
    """A transaction's read/write keys restricted to one partition."""

    reads: FrozenSet[Key]
    writes: FrozenSet[Key]

    @classmethod
    def of(
        cls, txn: "TxnPayload", partition: PartitionId, partitioner: HashPartitioner
    ) -> "Footprint":
        """A lookup: the transaction keeps its own split."""
        return txn._split(partitioner).footprints.get(partition, _NO_FOOTPRINT)

    def is_empty(self) -> bool:
        return not self.reads and not self.writes


_NO_FOOTPRINT = Footprint(reads=frozenset(), writes=frozenset())


class _KeySplit:
    """One transaction's reads and writes grouped by owning partition."""

    __slots__ = ("partitions", "reads", "writes", "footprints")

    def __init__(self, txn: "TxnPayload", partitioner: HashPartitioner) -> None:
        partition_of = partitioner.partition_of
        placement = {key: partition_of(key) for key in txn.keys()}
        self.partitions: FrozenSet[PartitionId] = frozenset(placement.values())
        self.reads: Dict[PartitionId, Mapping[Key, BatchNumber]] = {}
        self.writes: Dict[PartitionId, Mapping[Key, Value]] = {}
        if len(self.partitions) == 1:
            # The common, local case: the transaction's own mappings are the split.
            (only,) = self.partitions
            self.reads[only], self.writes[only] = txn.reads, txn.writes
        else:
            for grouped, items in ((self.reads, txn.reads), (self.writes, txn.writes)):
                for key, value in items.items():
                    grouped.setdefault(placement[key], {})[key] = value
        # Filled in the transaction's own key order and then frozen, as the
        # per-call comprehensions were: every set iterates as it always has.
        self.footprints = {
            partition: Footprint(
                reads=frozenset({key for key in self.reads.get(partition, ())}),
                writes=frozenset({key for key in self.writes.get(partition, ())}),
            )
            for partition in self.partitions
        }


@dataclass(frozen=True)
class TxnPayload(MemoisedValue):
    """A read-write transaction ready to be committed.

    ``reads`` maps each read key to the batch number (version) the value was
    read from; ``writes`` maps each written key to its new value.  Both maps
    may span several partitions — that is what makes the transaction
    distributed.

    The payload is immutable and every node of a run holds the same object,
    so what every stage re-derived from it is derived once and kept on it:
    the split of its key sets by partition (per ``num_partitions``, which is
    all placement depends on) and, for a transaction embedded in 2PC records,
    its canonical encoding.  Both are pure functions of the fields and are
    dropped by every copy (:class:`MemoisedValue`); the accessors below return
    shared, read-only views — callers must not mutate them.
    """

    txn_id: str
    reads: Dict[Key, BatchNumber] = field(default_factory=dict)
    writes: Dict[Key, Value] = field(default_factory=dict)
    client: str = ""

    def __post_init__(self) -> None:
        if not self.txn_id:
            raise InvalidTransactionError("transaction id must not be empty")
        if not self.reads and not self.writes:
            raise InvalidTransactionError(
                f"transaction {self.txn_id} has neither reads nor writes"
            )

    # -- footprint helpers ----------------------------------------------------

    def keys(self) -> FrozenSet[Key]:
        return frozenset(self.reads) | frozenset(self.writes)

    @cached_property
    def _splits(self) -> Dict[int, _KeySplit]:
        return {}

    def _split(self, partitioner: HashPartitioner) -> _KeySplit:
        splits, size = self._splits, partitioner.num_partitions
        split = splits.get(size)
        if split is None:
            split = splits[size] = _KeySplit(self, partitioner)
        return split

    def partitions(self, partitioner: HashPartitioner) -> FrozenSet[PartitionId]:
        """Partitions accessed by this transaction."""
        return self._split(partitioner).partitions

    def is_distributed(self, partitioner: HashPartitioner) -> bool:
        return len(self.partitions(partitioner)) > 1

    def read_keys_in(self, partition: PartitionId, partitioner: HashPartitioner) -> FrozenSet[Key]:
        return Footprint.of(self, partition, partitioner).reads

    def write_keys_in(self, partition: PartitionId, partitioner: HashPartitioner) -> FrozenSet[Key]:
        return Footprint.of(self, partition, partitioner).writes

    def writes_in(self, partition: PartitionId, partitioner: HashPartitioner) -> Mapping[Key, Value]:
        """Write mapping restricted to ``partition``, in the transaction's key order."""
        return self._split(partitioner).writes.get(partition, _NO_ITEMS)

    def reads_in(self, partition: PartitionId, partitioner: HashPartitioner) -> Mapping[Key, BatchNumber]:
        """Read-version mapping restricted to ``partition``, in the transaction's key order."""
        return self._split(partitioner).reads.get(partition, _NO_ITEMS)

    def is_write_only(self) -> bool:
        return not self.reads and bool(self.writes)

    # -- encoding ---------------------------------------------------------------

    def payload(self) -> dict:
        """Canonical encodable form (stable across replicas, used for digests)."""
        return {
            "txn_id": self.txn_id,
            "client": self.client,
            "reads": {key: int(version) for key, version in sorted(self.reads.items())},
            "writes": {key: value for key, value in sorted(self.writes.items())},
        }

    @cached_property
    def encoded(self) -> Encoded:
        """:meth:`payload`, canonicalised once.

        For a distributed transaction, which is embedded in the prepared
        record of every participant's batch and again in every copy of its
        commit record; a local transaction is digested exactly once and never
        asks (no bytes are retained for it).
        """
        return Encoded.of(self.payload())

