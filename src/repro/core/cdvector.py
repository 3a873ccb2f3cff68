"""Conflict-Dependency (CD) vectors.

The CD vector is the heart of TransEdge's dependency-tracking scheme
(Section 4.3 of the paper).  Every batch written by partition ``X`` carries a
vector with one entry per partition: entry ``Y`` is the number of the batch
*at partition Y* in which the distributed transactions that ``X`` just
committed had **prepared** (not where they committed — tracking the prepare
batch is what lets partitions keep committing local batches without waiting
for each other, challenge 2 in Section 4.3.2).  The entry for ``X`` itself is
always the batch's own number, and ``-1`` means "no dependency".

Vectors are combined with a pairwise maximum (Algorithm 1), which folds in
both the direct dependency introduced by a commit record and all transitive
dependencies reported by the participants' own CD vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.common.errors import InvalidTransactionError
from repro.common.ids import NO_BATCH, BatchNumber, PartitionId


@dataclass(frozen=True)
class CDVector:
    """An immutable dependency vector with one entry per partition."""

    entries: Tuple[BatchNumber, ...]

    @classmethod
    def initial(cls, num_partitions: int) -> "CDVector":
        """Vector with no dependencies (every entry is ``-1``)."""
        return cls(entries=tuple([NO_BATCH] * num_partitions))

    @classmethod
    def from_entries(cls, entries: Sequence[BatchNumber]) -> "CDVector":
        return cls(entries=tuple(int(entry) for entry in entries))

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidTransactionError("a CD vector needs at least one entry")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, partition: PartitionId) -> BatchNumber:
        return self.entries[partition]

    def with_entry(self, partition: PartitionId, batch: BatchNumber) -> "CDVector":
        """Return a copy with the entry for ``partition`` replaced."""
        entries: List[BatchNumber] = list(self.entries)
        entries[partition] = batch
        return CDVector(entries=tuple(entries))

    def pairwise_max(self, other: "CDVector") -> "CDVector":
        """Entry-wise maximum — the combine step of Algorithm 1."""
        if len(other) != len(self):
            raise InvalidTransactionError(
                f"cannot combine CD vectors of lengths {len(self)} and {len(other)}"
            )
        entries = tuple(map(max, self.entries, other.entries))
        # One prepare group's votes share a header: most folds change nothing.
        if entries == self.entries:
            return self
        return CDVector(entries=entries)

    def dominates(self, other: "CDVector") -> bool:
        """True when every entry of ``self`` is >= the matching entry of ``other``."""
        if len(other) != len(self):
            return False
        return all(a >= b for a, b in zip(self.entries, other.entries))

    def dependencies(self) -> Tuple[Tuple[PartitionId, BatchNumber], ...]:
        """Non-empty entries as ``(partition, batch)`` pairs."""
        return tuple(
            (partition, batch)
            for partition, batch in enumerate(self.entries)
            if batch != NO_BATCH
        )

    def payload(self) -> List[int]:
        """Encodable form used inside signed batch headers."""
        return [int(entry) for entry in self.entries]


def combine_all(base: CDVector, reported: Iterable[CDVector]) -> CDVector:
    """Fold ``reported`` vectors into ``base`` with pairwise maxima (Algorithm 1)."""
    combined = base
    for vector in reported:
        combined = combined.pairwise_max(vector)
    return combined
