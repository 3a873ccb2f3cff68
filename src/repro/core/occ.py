"""Optimistic concurrency control: the conflict-detection rules.

TransEdge validates transactions with the three rules of Definition 3.1:

1. **Previous batches** — every read in the read set must still be the
   latest committed version of its key (no committed transaction in an
   earlier batch overwrote it);
2. **In-progress batch** — the transaction must not conflict with any
   transaction already placed in the local, prepared or committed segment of
   the batch being built;
3. **Prepared transactions** — the transaction must not conflict with any
   distributed transaction that is prepared but not yet decided.

Two transactions conflict when, restricted to the keys this partition owns,
one writes a key the other reads or writes (read-write, write-read or
write-write intersection).  Both the leader (when admitting a transaction)
and every replica (when validating a proposed batch) run exactly this code,
which is what stops a byzantine leader from sneaking a conflicting
transaction into the log.

Pending transactions (rules 2 and 3) are tracked in a
:class:`KeyConflictIndex`, keyed by data item, so that admitting a
transaction costs time proportional to its own footprint rather than to the
number of pending transactions — essential for the paper's large batch sizes
(Figures 9–15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.common.ids import PartitionId
from repro.common.types import Key
from repro.core.transaction import Footprint, TxnPayload
from repro.storage.mvstore import MultiVersionStore
from repro.storage.partitioner import HashPartitioner


@dataclass(frozen=True)
class ConflictReport:
    """Why a transaction cannot be admitted (``ok`` means it can)."""

    ok: bool
    reason: str = ""
    conflicting_txn: str = ""

    @classmethod
    def accept(cls) -> "ConflictReport":
        return cls(ok=True)

    @classmethod
    def reject(cls, reason: str, conflicting_txn: str = "") -> "ConflictReport":
        return cls(ok=False, reason=reason, conflicting_txn=conflicting_txn)


def stale_read_check(
    txn: TxnPayload,
    partition: PartitionId,
    partitioner: HashPartitioner,
    store: MultiVersionStore,
) -> Optional[Key]:
    """Rule 1: return the first stale read key, or ``None`` when all are fresh."""
    for key, version in txn.reads_in(partition, partitioner).items():
        if store.version_of(key) != version:
            return key
    return None


class KeyConflictIndex:
    """Per-key index of pending transactions' footprints.

    One index tracks one set of pending transactions (e.g. the in-progress
    batch, or the prepared-but-unwritten distributed transactions).  Lookups
    touch only the candidate transaction's own keys.  A key's owners are kept
    in indexing order (a dict used as an ordered set), so the transaction an
    abort reason names does not depend on ``PYTHONHASHSEED``.
    """

    def __init__(self, partition: PartitionId, partitioner: HashPartitioner) -> None:
        self._partition = partition
        self._partitioner = partitioner
        self._readers: Dict[Key, Dict[str, None]] = {}
        self._writers: Dict[Key, Dict[str, None]] = {}
        self._footprints: Dict[str, Footprint] = {}

    def __len__(self) -> int:
        return len(self._footprints)

    def __contains__(self, txn_id: str) -> bool:
        return txn_id in self._footprints

    def clear(self) -> None:
        self._readers.clear()
        self._writers.clear()
        self._footprints.clear()

    def add(self, txn: TxnPayload) -> None:
        """Index ``txn``'s local footprint (no-op when already present)."""
        if txn.txn_id in self._footprints:
            return
        footprint = Footprint.of(txn, self._partition, self._partitioner)
        self._footprints[txn.txn_id] = footprint
        for key in footprint.reads:
            self._readers.setdefault(key, {})[txn.txn_id] = None
        for key in footprint.writes:
            self._writers.setdefault(key, {})[txn.txn_id] = None

    def remove(self, txn_id: str) -> None:
        footprint = self._footprints.pop(txn_id, None)
        if footprint is None:
            return
        for key in footprint.reads:
            owners = self._readers.get(key)
            if owners is not None:
                owners.pop(txn_id, None)
                if not owners:
                    del self._readers[key]
        for key in footprint.writes:
            owners = self._writers.get(key)
            if owners is not None:
                owners.pop(txn_id, None)
                if not owners:
                    del self._writers[key]

    def first_conflict(self, txn: TxnPayload) -> Optional[str]:
        """Id of the first-indexed transaction conflicting with ``txn`` (or None).

        For each key ``txn`` writes, that key's writers then its readers are
        searched, then the writers of each key it reads; each in indexing order.
        """
        footprint = Footprint.of(txn, self._partition, self._partitioner)
        for key in footprint.writes:
            for owner in self._writers.get(key, ()):
                if owner != txn.txn_id:
                    return owner
            for owner in self._readers.get(key, ()):
                if owner != txn.txn_id:
                    return owner
        for key in footprint.reads:
            for owner in self._writers.get(key, ()):
                if owner != txn.txn_id:
                    return owner
        return None


class ConflictChecker:
    """Applies Definition 3.1 for one partition.

    ``indexes`` supply the pending transactions of rules 2 and 3 (the
    in-progress batch and the prepared-but-undecided transactions); the store
    supplies rule 1.
    """

    def __init__(
        self,
        partition: PartitionId,
        partitioner: HashPartitioner,
        store: MultiVersionStore,
    ) -> None:
        self._partition = partition
        self._partitioner = partitioner
        self._store = store

    def check(
        self, txn: TxnPayload, indexes: Sequence[KeyConflictIndex] = ()
    ) -> ConflictReport:
        """Validate ``txn`` against the store and the pending ``indexes``."""
        stale_key = stale_read_check(txn, self._partition, self._partitioner, self._store)
        if stale_key is not None:
            return ConflictReport.reject(
                reason=f"stale read of key {stale_key!r} (overwritten by a previous batch)"
            )
        if Footprint.of(txn, self._partition, self._partitioner).is_empty():
            return ConflictReport.accept()
        for index in indexes:
            conflicting = index.first_conflict(txn)
            if conflicting is not None:
                return ConflictReport.reject(
                    reason=f"conflicts with pending transaction {conflicting}",
                    conflicting_txn=conflicting,
                )
        return ConflictReport.accept()
