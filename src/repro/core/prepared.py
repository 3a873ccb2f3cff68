"""The prepared-batches structure and the ordering constraint.

Distributed transactions prepare in some batch and commit in a later one.
The leader (and, mirroring it, every replica) tracks the in-flight prepare
groups in the *prepared batches* structure of Figure 2: one group per batch
that contained prepared records, each group holding its transactions and the
decisions received so far.

Definition 4.1 (the TransEdge ordering constraint) requires prepare groups to
commit or abort **in order**: the group prepared in batch ``i`` must be fully
decided and placed in a committed segment before any group prepared in a
batch ``j > i`` may be.  :meth:`PreparedBatches.ready_prefix` is how a
sealing leader picks decided groups, and it enforces exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.errors import TransactionError
from repro.common.ids import BatchNumber
from repro.core.batch import CommitRecord, PreparedRecord
from repro.core.occ import KeyConflictIndex


@dataclass
class PrepareGroup:
    """All distributed transactions that prepared in one batch."""

    batch_number: BatchNumber
    records: Dict[str, PreparedRecord] = field(default_factory=dict)
    decisions: Dict[str, CommitRecord] = field(default_factory=dict)

    def add_record(self, record: PreparedRecord) -> None:
        self.records[record.txn.txn_id] = record

    def add_decision(self, record: CommitRecord) -> None:
        if record.txn.txn_id not in self.records:
            raise TransactionError(
                f"decision for unknown transaction {record.txn.txn_id} "
                f"in prepare group {self.batch_number}"
            )
        self.decisions[record.txn.txn_id] = record

    def is_ready(self) -> bool:
        """True when every prepared transaction has a commit/abort decision."""
        return set(self.decisions) == set(self.records)

    def ordered_decisions(self) -> Tuple[CommitRecord, ...]:
        """Decisions in a deterministic order (by transaction id)."""
        return tuple(self.decisions[txn_id] for txn_id in sorted(self.decisions))

class PreparedBatches:
    """Ordered collection of in-flight prepare groups for one partition.

    ``index`` holds the footprints of the grouped transactions: conflict
    rule 3's prepared transactions (Definition 3.1).
    """

    def __init__(self, index: KeyConflictIndex) -> None:
        self._groups: Dict[BatchNumber, PrepareGroup] = {}
        self.index = index

    # -- building ----------------------------------------------------------------

    def add_group(self, batch_number: BatchNumber, records: List[PreparedRecord]) -> None:
        """Register the prepare group created by batch ``batch_number``."""
        if not records:
            return
        if batch_number in self._groups:
            raise TransactionError(f"prepare group {batch_number} already exists")
        group = PrepareGroup(batch_number=batch_number)
        for record in records:
            group.add_record(record)
            self.index.add(record.txn)
        self._groups[batch_number] = group

    def record_decision(self, record: CommitRecord) -> None:
        """Attach a commit/abort decision to the group that prepared the txn."""
        group = self.group_of_txn(record.txn.txn_id)
        if group is None:
            raise TransactionError(
                f"no prepare group contains transaction {record.txn.txn_id}"
            )
        group.add_decision(record)

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, batch_number: BatchNumber) -> bool:
        return batch_number in self._groups

    def group(self, batch_number: BatchNumber) -> PrepareGroup:
        if batch_number not in self._groups:
            raise TransactionError(f"no prepare group for batch {batch_number}")
        return self._groups[batch_number]

    def group_of_txn(self, txn_id: str) -> Optional[PrepareGroup]:
        for group in self._groups.values():
            if txn_id in group.records:
                return group
        return None

    def pending_transactions(self) -> Iterator[Tuple[str, PreparedRecord]]:
        """Every prepared-but-undecided transaction (for conflict rule 3)."""
        for batch_number in sorted(self._groups):
            group = self._groups[batch_number]
            for txn_id, record in group.records.items():
                if txn_id not in group.decisions:
                    yield txn_id, record

    def has_undecided(self) -> bool:
        """True while any prepared transaction still awaits its 2PC decision."""
        return any(not group.is_ready() for group in self._groups.values())

    def group_numbers(self) -> List[BatchNumber]:
        """All in-flight prepare-group batch numbers, oldest first."""
        return sorted(self._groups)

    # -- the ordering constraint ----------------------------------------------------

    def ready_prefix(self) -> List[PrepareGroup]:
        """Return (without removing) the maximal ready prefix of prepare groups.

        The leader uses this while sealing a batch: the prefix's decisions
        become the committed segment, and the groups themselves are removed
        by every replica — leader included — when the batch is delivered.
        """
        ready: List[PrepareGroup] = []
        for batch_number in sorted(self._groups):
            group = self._groups[batch_number]
            if not group.is_ready():
                break
            ready.append(group)
        return ready

    def remove_group(self, batch_number: BatchNumber) -> None:
        """Drop a group wholesale (used by replicas mirroring a delivered batch)."""
        group = self._groups.pop(batch_number, None)
        if group is not None:
            for txn_id in group.records:
                self.index.remove(txn_id)
