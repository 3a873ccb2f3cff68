"""Versioned Merkle tree archive: cheap historical trees for snapshot reads.

Round two of the snapshot read-only protocol asks a replica to prove keys
against the Merkle root of an *older* batch.  Rebuilding that tree from a
materialised historical snapshot costs O(K) in the partition size — the
paper's cheapest operation would scale with the database, not the read.

The archive exploits the fact that consecutive committed trees differ only
along the root paths of the batch's dirty keys.  Every
:meth:`~repro.crypto.merkle.MerkleStore.apply` names its batch, and whenever
the current tree is about to absorb a batch's updates in place, the archive
records a *reverse delta*: the digests currently stored on those root paths,
O(dirty · log K) space and time.  A batch that inserts brand-new keys shifts
leaf positions, and the store swaps in a new tree
(:meth:`~repro.crypto.merkle.MerkleTree.inserted`); the superseded tree
object is then retired into the archive wholesale (it is immutable from that
point on, so this is a reference, not a copy).

``tree_at(batch)`` resolves a historical tree as a read-only
:class:`HistoricalTreeView`: digest lookups fall through the reverse deltas
from the requested state towards the present, stopping at the first retired
full tree (or the live tree).  Proofs produced by the view are byte-identical
to proofs from a from-scratch tree over the historical snapshot, because the
leaf order and level structure are exactly those of the base tree.

Retention is driven by the checkpoint manager: when a checkpoint becomes
stable, the archive is pruned alongside the multi-version store and the
certified-header list, so the three always answer the same window of batches.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Collection, Dict, List, Optional, Sequence, Union

from repro.common.errors import ProofError
from repro.common.ids import NO_BATCH, BatchNumber
from repro.common.types import Key
from repro.crypto.hashing import Digest
from repro.crypto.merkle import EMPTY_ROOT, MerkleProof, MerkleTree, proof_steps

#: A reverse delta: for every tree level, the superseded digests by node index.
ReverseDelta = List[Dict[int, Digest]]


class HistoricalTreeView:
    """A past Merkle tree, resolved lazily through reverse deltas.

    The view shares the level *structure* (leaf order, level sizes) with
    ``base`` — valid because deltas are only recorded between trees with an
    identical key set — and answers digest lookups by checking the deltas
    oldest-first before falling through to the base tree.

    A view whose base is the *live* tree is only valid until the next
    archived apply mutates that tree in place; ``stale_check`` (installed by
    the archive) makes such a view raise :class:`ProofError` afterwards
    instead of silently mixing old delta cells with new live digests.
    """

    def __init__(
        self,
        base: MerkleTree,
        deltas: Sequence[ReverseDelta],
        stale_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._base = base
        self._deltas = tuple(deltas)
        self._stale_check = stale_check

    def _ensure_fresh(self) -> None:
        if self._stale_check is not None and self._stale_check():
            raise ProofError(
                "historical tree view is stale: the live tree advanced past it"
            )

    def _digest_at(self, level: int, index: int) -> Digest:
        for delta in self._deltas:
            cells = delta[level]
            if index in cells:
                return cells[index]
        return self._base._levels[level][index]

    @property
    def root(self) -> Digest:
        self._ensure_fresh()
        if not self._base._levels[0]:
            return EMPTY_ROOT
        return self._digest_at(len(self._base._levels) - 1, 0)

    def __contains__(self, key: Key) -> bool:
        return key in self._base._index

    def prove(self, key: Key) -> MerkleProof:
        """Membership proof for ``key`` against this historical root.

        Byte-identical to ``MerkleTree(historical_items).prove(key)``: the
        walk is the shared :func:`~repro.crypto.merkle.proof_steps` over the
        base tree's levels and this view's reverse deltas.
        """
        self._ensure_fresh()
        index = self._base._index.get(key)
        if index is None:
            raise ProofError(f"key {key!r} is not in the Merkle tree")
        return MerkleProof(key=key, steps=proof_steps(self._base._levels, index, self._deltas))


@dataclass
class _Record:
    """One archived state: the tree right after ``batch`` was applied.

    Exactly one of ``delta``/``tree`` is set.  A delta record is relative to
    the next-newer record (or the live tree); a tree record is self-contained
    and terminates delta resolution for every older record.

    ``swallowed_min`` is set by :meth:`MerkleTreeArchive.compact`: it is the
    smallest batch number whose state was merged into this record and can no
    longer be reproduced exactly.  ``tree_at(b)`` answers from this record
    only for ``b < swallowed_min`` — beyond it the record's state would be
    silently wrong for ``b``, so the archive refuses instead (the replica
    falls back to a rebuild).
    """

    batch: BatchNumber
    delta: Optional[ReverseDelta] = None
    tree: Optional[MerkleTree] = None
    swallowed_min: Optional[BatchNumber] = None


class MerkleTreeArchive:
    """Per-partition history of committed Merkle trees as reverse deltas.

    The owning :class:`~repro.crypto.merkle.MerkleStore` notifies the archive
    immediately *before* folding a batch into the current tree; the archive
    captures whatever is needed to keep answering for the superseded state.
    ``max_batches`` bounds memory when checkpoint-driven pruning is disabled.
    """

    def __init__(self, max_batches: int = 512) -> None:
        if max_batches < 1:
            raise ValueError("archive max_batches must be >= 1")
        self._max_batches = max_batches
        self._records: List[_Record] = []
        self._batches: List[BatchNumber] = []  # parallel to _records, ascending
        self._current_batch: BatchNumber = NO_BATCH
        # Bumped whenever the live tree is about to mutate (or history is
        # dropped); views based on the live tree check it to fail loudly
        # instead of reading half-updated digests.
        self._generation = 0
        self.deltas_recorded = 0
        self.trees_retired = 0
        self.records_compacted = 0

    # -- queries -------------------------------------------------------------

    @property
    def oldest_batch(self) -> Optional[BatchNumber]:
        """Oldest batch the archive can still answer for (None when empty)."""
        if not self._batches:
            return None
        return self._batches[0]

    def __len__(self) -> int:
        return len(self._records)

    def tree_at(
        self, batch: BatchNumber, current_tree: MerkleTree
    ) -> Optional[Union[MerkleTree, HistoricalTreeView]]:
        """The tree as of ``batch``, or None when outside the retained window.

        ``current_tree`` is the owning store's live tree, used both as the
        answer for ``batch >= current_batch`` and as the fall-through base for
        delta resolution.
        """
        if batch >= self._current_batch:
            return current_tree
        position = bisect.bisect_right(self._batches, batch) - 1
        if position < 0:
            return None
        target = self._records[position]
        if target.swallowed_min is not None and batch >= target.swallowed_min:
            # A compacted-away batch: the record's state is older than the
            # requested one and would verify against the wrong root.
            return None
        if target.tree is not None:
            return target.tree
        deltas: List[ReverseDelta] = [target.delta]
        for record in self._records[position + 1 :]:
            if record.tree is not None:
                # Retired trees are immutable: the view can outlive applies.
                return HistoricalTreeView(record.tree, deltas)
            deltas.append(record.delta)
        generation = self._generation
        return HistoricalTreeView(
            current_tree, deltas, stale_check=lambda: self._generation != generation
        )

    def covers(self, batch: BatchNumber) -> bool:
        """True when :meth:`tree_at` would answer for ``batch``.

        Cheap (two bisect-level checks, no view construction) so the
        processing-cost model can ask it per request.
        """
        if batch >= self._current_batch:
            return True
        position = bisect.bisect_right(self._batches, batch) - 1
        if position < 0:
            return False
        record = self._records[position]
        return record.swallowed_min is None or batch < record.swallowed_min

    def prove_at(
        self, key: Key, batch: BatchNumber, current_tree: MerkleTree
    ) -> MerkleProof:
        """Proof for ``key`` against the tree as of ``batch``.

        Raises :class:`ProofError` when the batch is outside the archive or
        the key is not a member of the historical tree.
        """
        tree = self.tree_at(batch, current_tree)
        if tree is None:
            raise ProofError(f"batch {batch} is older than the archive retention")
        return tree.prove(key)

    # -- recording (called by MerkleStore before each mutation) ---------------

    def record_delta(self, new_batch: BatchNumber, delta: ReverseDelta) -> None:
        """Archive the current state as a reverse delta, superseded by ``new_batch``.

        ``delta`` may be the path overlay that is about to be installed:
        :meth:`MerkleTree.install` swaps its cells for the superseded ones in
        place, and nothing reads a record between the two calls.
        """
        self._append(_Record(batch=self._current_batch, delta=delta), new_batch)
        self.deltas_recorded += 1

    def record_tree(self, new_batch: BatchNumber, tree: MerkleTree) -> None:
        """Retire the current tree wholesale (a rebuild is about to replace it)."""
        self._append(_Record(batch=self._current_batch, tree=tree), new_batch)
        self.trees_retired += 1

    def _append(self, record: _Record, new_batch: BatchNumber) -> None:
        self._generation += 1  # the live tree is about to mutate
        if new_batch <= self._current_batch:
            raise ValueError(
                f"archive batches must increase: {new_batch} after {self._current_batch}"
            )
        self._records.append(record)
        self._batches.append(record.batch)
        self._current_batch = new_batch
        overflow = len(self._records) - self._max_batches
        if overflow > 0:
            del self._records[:overflow]
            del self._batches[:overflow]

    def reset(self, base_batch: BatchNumber = NO_BATCH) -> None:
        """Drop all history and re-base (state was replaced out of band)."""
        self._generation += 1
        self._records = []
        self._batches = []
        self._current_batch = base_batch

    # -- retention -----------------------------------------------------------

    def prune(self, upto: BatchNumber) -> int:
        """Drop records no longer needed for ``tree_at(b)`` with ``b >= upto``.

        Mirrors :meth:`MultiVersionStore.prune`: the newest record at or below
        ``upto`` is kept as the floor of the retained window.  Returns the
        number of records dropped.
        """
        cut = bisect.bisect_right(self._batches, upto) - 1
        if cut <= 0:
            return 0
        del self._records[:cut]
        del self._batches[:cut]
        return cut

    # -- compaction (checkpoint-time, see PerfConfig) ---------------------------

    def compact(self, keep: Collection[BatchNumber]) -> int:
        """Merge records whose exact state no request can name any more.

        ``keep`` is the set of batch numbers that must stay exactly
        answerable — for a partition replica, the earliest header of every
        LCE run plus the retention floor, since
        ``_earliest_header_with_lce`` can never return any other header.  A
        record outside ``keep`` is merged into its next-older neighbour:
        consecutive reverse deltas overlap heavily near the tree root, so the
        union is smaller than the parts, which is what lets an equal memory
        budget retain a longer window.  Merged-away batches are remembered
        via ``swallowed_min`` so :meth:`tree_at` refuses (rather than
        mis-answers) for them.  Returns the number of records merged away.
        """
        if len(self._records) < 2:
            return 0
        keep_set = set(keep)
        merged: List[_Record] = [self._records[0]]
        removed = 0
        for record in self._records[1:]:
            target = merged[-1]
            mergeable = (
                record.batch not in keep_set
                # Never merge a retired full tree away: it terminates delta
                # resolution for every older record.
                and record.tree is None
            )
            if not mergeable:
                merged.append(record)
                continue
            if target.tree is not None:
                # The older neighbour is self-contained; the newer delta is
                # simply dropped (older chains stop at the tree anyway).
                pass
            else:
                # Reverse deltas are consulted oldest-first, so the merged
                # delta keeps the older record's cells where both define one.
                target.delta = [
                    {**newer_cells, **older_cells}
                    for older_cells, newer_cells in zip(target.delta, record.delta)
                ]
            if target.swallowed_min is None:
                target.swallowed_min = record.batch
            removed += 1
        if not removed:
            return 0
        self._generation += 1  # views over dropped records must not linger
        self._records = merged
        self._batches = [record.batch for record in merged]
        self.records_compacted += removed
        return removed
