"""Replicated state-machine log.

Each replica appends decided consensus values (TransEdge batches) to a
:class:`ReplicatedLog` in strict sequence order together with the commit
certificate proving agreement.  The log is the "SMR log" of Figure 2 in the
paper: committed local transactions, prepared records and commit records all
live in the batches stored here.

The log is *compactable*: once a quorum-certified checkpoint covers a prefix
(see :mod:`repro.recovery`), :meth:`ReplicatedLog.truncate_prefix` discards
the entries below it while sequence numbering continues unchanged — the log
keeps a base offset, so ``append``/``get`` still speak global sequence
numbers after compaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.common.errors import ConsensusError
from repro.bft.quorum import CommitCertificate


@dataclass(frozen=True)
class LogEntry:
    """One decided value with its proof of agreement."""

    seq: int
    value: object
    certificate: CommitCertificate


class ReplicatedLog:
    """Append-only, gap-free sequence of decided values with prefix compaction."""

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []
        self._base = 0

    def append(self, seq: int, value: object, certificate: CommitCertificate) -> LogEntry:
        """Append the decision for ``seq``; sequence numbers must be contiguous."""
        expected = self.next_seq
        if seq != expected:
            raise ConsensusError(
                f"log append out of order: got seq {seq}, expected {expected}"
            )
        entry = LogEntry(seq=seq, value=value, certificate=certificate)
        self._entries.append(entry)
        return entry

    @property
    def first_seq(self) -> int:
        """Lowest sequence number still stored (``next_seq`` when empty)."""
        return self._base

    @property
    def last_seq(self) -> int:
        """Highest decided sequence number (``first_seq - 1`` when empty)."""
        return self._base + len(self._entries) - 1

    @property
    def next_seq(self) -> int:
        return self._base + len(self._entries)

    # -- compaction ---------------------------------------------------------

    def truncate_prefix(self, first_retained: int) -> int:
        """Discard entries below ``first_retained``; returns how many were dropped.

        Truncation never removes undecided sequence numbers: the cut is
        clamped to ``[first_seq, next_seq]``, so truncating "past the end"
        just empties the log and numbering continues from ``next_seq``.
        """
        cut = min(max(first_retained, self._base), self.next_seq) - self._base
        if cut <= 0:
            return 0
        del self._entries[:cut]
        self._base += cut
        return cut

    def reset_base(self, next_seq: int) -> None:
        """Re-anchor an empty log to continue at ``next_seq``.

        Used when a recovering replica installs a checkpoint image: the
        entries below the checkpoint no longer exist anywhere, so the log
        restarts right above it.
        """
        if self._entries:
            raise ConsensusError("reset_base requires an empty log")
        self._base = next_seq

    def entries_from(self, start_seq: int) -> Tuple[LogEntry, ...]:
        """All stored entries with ``seq >= start_seq`` (the state-transfer suffix)."""
        index = max(0, start_seq - self._base)
        return tuple(self._entries[index:])

    def __len__(self) -> int:
        return len(self._entries)

