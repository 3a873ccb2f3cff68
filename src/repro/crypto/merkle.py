"""Merkle tree authenticated data structure (ADS).

TransEdge certifies the integrity of committed data with a Merkle tree per
partition: all replicas of a cluster recompute the tree while processing a
batch, the root is agreed on through the BFT layer, and read-only clients
verify returned values against the agreed root using membership proofs
(Sections 3.4 and 4.1/4.2 of the paper).

The tree is built over the partition's key/value map: leaves are
``H(key || H(value))`` in sorted key order, internal nodes are
``H(left || right)``.  An odd node at any level is promoted unchanged.  The
implementation favours clarity over asymptotic cleverness.  A partition's
genesis tree is built once and every replica starts from a
:meth:`MerkleTree.clone` of it; applying a batch's write-sets recomputes only
the root paths of the written keys (a brand-new key shifts leaf positions
and rebuilds the tree), and the store's archive answers for the tree of any
recent batch when a read-only client asks for an older snapshot in round two.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ProofError
from repro.common.ids import NO_BATCH, BatchNumber
from repro.common.types import Key, Value
from repro.crypto.hashing import Digest, sha256

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (archive imports merkle)
    from repro.crypto.archive import HistoricalTreeView, MerkleTreeArchive

#: Root value of a tree with no leaves.
EMPTY_ROOT: Digest = sha256(b"transedge:empty-merkle-tree")


def leaf_digest(key: Key, value: Value) -> Digest:
    """Digest of one leaf: binds the key to a digest of its value."""
    return sha256(b"L" + key.encode("utf-8") + b"\x00" + sha256(value))


def _parent_digest(left: Digest, right: Digest) -> Digest:
    return sha256(b"I" + left + right)


@dataclass(frozen=True)
class ProofStep:
    """One step of a membership proof: a sibling digest and its side."""

    sibling: Digest
    sibling_is_left: bool


@dataclass(frozen=True)
class MerkleProof:
    """Membership proof for one key/value pair against a specific root."""

    key: Key
    steps: Tuple[ProofStep, ...]

    def __len__(self) -> int:
        return len(self.steps)


def proof_steps(level_sizes, leaf_index, digest_at) -> Tuple[ProofStep, ...]:
    """The sibling walk shared by live trees and archived historical views.

    ``level_sizes`` are the per-level node counts (leaves first),
    ``digest_at(level, index)`` resolves one node digest.  Keeping the walk —
    including the odd-node-promotion rule (an odd node contributes no sibling
    at its level) — in one place is what makes archive proofs byte-identical
    to live-tree proofs by construction.
    """
    index = leaf_index
    steps: List[ProofStep] = []
    for level_number, size in enumerate(level_sizes[:-1]):
        if index % 2 == 0:
            sibling_index = index + 1
            sibling_is_left = False
        else:
            sibling_index = index - 1
            sibling_is_left = True
        if sibling_index < size:
            steps.append(
                ProofStep(
                    sibling=digest_at(level_number, sibling_index),
                    sibling_is_left=sibling_is_left,
                )
            )
        index //= 2
    return tuple(steps)


class MerkleTree:
    """A Merkle tree over a key/value mapping.

    The tree supports two kinds of efficient updates for keys that are
    *already present*: :meth:`update_values` recomputes only the affected
    paths in place, and :meth:`root_with_updates` answers "what would the
    root be if these values changed" without mutating anything — which is how
    replicas validate the Merkle root a leader proposes before voting for it.
    Inserting new keys changes leaf positions and requires a rebuild.
    """

    def __init__(self, items: Mapping[Key, Value]) -> None:
        self._keys: List[Key] = sorted(items)
        self._index: Dict[Key, int] = {key: i for i, key in enumerate(self._keys)}
        self._levels: List[List[Digest]] = []
        leaves = [leaf_digest(key, items[key]) for key in self._keys]
        self._levels.append(leaves)
        current = leaves
        while len(current) > 1:
            nxt: List[Digest] = []
            for i in range(0, len(current) - 1, 2):
                nxt.append(_parent_digest(current[i], current[i + 1]))
            if len(current) % 2 == 1:
                nxt.append(current[-1])
            self._levels.append(nxt)
            current = nxt

    @classmethod
    def from_items(cls, items: Mapping[Key, Value]) -> "MerkleTree":
        """Build a tree from a key/value mapping."""
        return cls(items)

    def clone(self) -> "MerkleTree":
        """An independent tree over the same leaves, without hashing anything.

        The sorted key list and its index are shared (no method mutates them:
        inserting a key replaces the whole tree object); only the digest
        levels, which :meth:`update_values` overwrites in place, are copied.
        """
        twin = MerkleTree.__new__(MerkleTree)
        twin._keys = self._keys
        twin._index = self._index
        twin._levels = [list(level) for level in self._levels]
        return twin

    @property
    def root(self) -> Digest:
        """Root digest (``EMPTY_ROOT`` for an empty tree)."""
        if not self._levels[0]:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def covers(self, keys: Iterable[Key]) -> bool:
        """True when every key in ``keys`` is already a leaf of this tree."""
        return all(key in self._index for key in keys)

    def _recompute_parents(self, level_index: int, dirty: "set[int]", overlay=None) -> "set[int]":
        """Compute the dirty parent digests one level up.

        When ``overlay`` is ``None`` the tree is mutated in place; otherwise
        digests are read through/written to the overlay dictionaries and the
        stored levels stay untouched.
        """
        level = self._levels[level_index]
        parent_level = self._levels[level_index + 1]
        read_level = level if overlay is None else overlay[level_index]
        parents_dirty: "set[int]" = set()
        for index in dirty:
            parent_index = index // 2
            if parent_index in parents_dirty:
                continue
            left_index = parent_index * 2
            right_index = left_index + 1

            def digest_at(i: int) -> Digest:
                if overlay is not None and i in overlay[level_index]:
                    return overlay[level_index][i]
                return level[i]

            if right_index < len(level):
                parent = _parent_digest(digest_at(left_index), digest_at(right_index))
            else:
                parent = digest_at(left_index)
            if overlay is None:
                parent_level[parent_index] = parent
            else:
                overlay[level_index + 1][parent_index] = parent
            parents_dirty.add(parent_index)
        return parents_dirty

    def update_values(self, updates: Mapping[Key, Value]) -> Digest:
        """Update the values of existing keys in place and return the new root."""
        if not updates:
            return self.root
        if not self.covers(updates):
            raise ProofError("update_values only handles keys already in the tree")
        dirty = set()
        for key, value in updates.items():
            index = self._index[key]
            self._levels[0][index] = leaf_digest(key, value)
            dirty.add(index)
        for level_index in range(len(self._levels) - 1):
            dirty = self._recompute_parents(level_index, dirty)
        return self.root

    def root_with_updates(self, updates: Mapping[Key, Value]) -> Digest:
        """Root the tree *would* have after ``updates``, without mutating it."""
        if not updates:
            return self.root
        if not self.covers(updates):
            raise ProofError("root_with_updates only handles keys already in the tree")
        overlay: List[Dict[int, Digest]] = [dict() for _ in self._levels]
        dirty = set()
        for key, value in updates.items():
            index = self._index[key]
            overlay[0][index] = leaf_digest(key, value)
            dirty.add(index)
        for level_index in range(len(self._levels) - 1):
            dirty = self._recompute_parents(level_index, dirty, overlay=overlay)
        top = overlay[-1]
        if 0 in top:
            return top[0]
        return self.root

    def capture_paths(self, keys: Iterable[Key]) -> List[Dict[int, Digest]]:
        """Snapshot the digests on the root paths of ``keys``, level by level.

        This is exactly the cell set :meth:`update_values` overwrites for the
        same keys, so the result is the reverse delta that restores this tree
        after such an update — the raw material of
        :class:`~repro.crypto.archive.MerkleTreeArchive`.  Cost is
        O(len(keys) · log K).
        """
        dirty = {self._index[key] for key in keys}
        snapshot: List[Dict[int, Digest]] = []
        for level in self._levels:
            snapshot.append({index: level[index] for index in dirty})
            dirty = {index // 2 for index in dirty}
        return snapshot

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Key) -> bool:
        return key in self._index

    def keys(self) -> Sequence[Key]:
        return tuple(self._keys)

    def prove(self, key: Key) -> MerkleProof:
        """Produce a membership proof for ``key``.

        Raises :class:`ProofError` when the key is not part of the tree.
        """
        if key not in self._index:
            raise ProofError(f"key {key!r} is not in the Merkle tree")
        steps = proof_steps(
            [len(level) for level in self._levels],
            self._index[key],
            lambda level, index: self._levels[level][index],
        )
        return MerkleProof(key=key, steps=steps)


def verify_proof(root: Digest, key: Key, value: Value, proof: MerkleProof) -> bool:
    """Check a membership proof against ``root``.

    Returns True when replaying the proof over ``H(key, value)`` reproduces
    ``root``; the caller decides how to react to a failure (a read-only
    client treats it as a byzantine response and retries elsewhere).
    """
    if proof.key != key:
        return False
    digest = leaf_digest(key, value)
    for step in proof.steps:
        if step.sibling_is_left:
            digest = _parent_digest(step.sibling, digest)
        else:
            digest = _parent_digest(digest, step.sibling)
    return digest == root


class MerkleStore:
    """A key/value map together with its current Merkle tree.

    Replicas keep one ``MerkleStore`` per partition; ``apply`` folds in a
    batch's visible write-sets and updates the tree, returning the new root
    that is then agreed on through consensus.  ``initial`` is only ever read
    (writes land in an overlay in front of it), so the replicas of a cluster
    can share one genesis mapping; ``tree`` is a prebuilt tree over exactly
    ``initial`` for this store to own (a genesis :meth:`MerkleTree.clone`),
    built here when omitted.

    When constructed with a :class:`~repro.crypto.archive.MerkleTreeArchive`,
    every batch-tagged ``apply`` first archives the superseded tree state, so
    :meth:`tree_at`/:meth:`prove_at` can answer round-2 snapshot reads for
    recent batches without materialising or rebuilding anything.
    """

    def __init__(
        self,
        initial: Optional[Mapping[Key, Value]] = None,
        archive: Optional["MerkleTreeArchive"] = None,
        base_batch: BatchNumber = NO_BATCH,
        tree: Optional[MerkleTree] = None,
    ) -> None:
        base = initial if initial is not None else {}
        # Writes land in ``_written``; reads fall through to the shared base.
        self._written: Dict[Key, Value] = {}
        self._items: Mapping[Key, Value] = ChainMap(self._written, base)
        self._tree = tree if tree is not None else MerkleTree(base)
        self._archive = archive
        if archive is not None:
            archive.reset(base_batch)

    @property
    def root(self) -> Digest:
        return self._tree.root

    @property
    def tree(self) -> MerkleTree:
        return self._tree

    @property
    def archive(self) -> Optional["MerkleTreeArchive"]:
        return self._archive

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, key: Key) -> bool:
        return key in self._tree

    def get(self, key: Key) -> Optional[Value]:
        return self._items.get(key)

    def items(self) -> Mapping[Key, Value]:
        """Read-only live view of the store contents (no copy)."""
        return MappingProxyType(self._items)

    def apply(self, updates: Mapping[Key, Value], batch: Optional[BatchNumber] = None) -> Digest:
        """Apply ``updates`` and return the new root.

        Updates to existing keys take the incremental path (only the affected
        tree paths are recomputed); introducing a brand-new key rebuilds the
        tree, since leaf positions shift.  ``batch`` tags the update for the
        archive; an untagged mutating apply clears the archive, since its
        deltas would no longer describe the live tree.
        """
        if not updates:
            return self._tree.root
        covered = self._tree.covers(updates)
        if self._archive is not None:
            if batch is None:
                self._archive.invalidate()
            elif covered:
                self._archive.record_delta(batch, self._tree.capture_paths(updates))
            else:
                self._archive.record_tree(batch, self._tree)
        self._written.update(updates)
        if covered:
            return self._tree.update_values(updates)
        self._tree = MerkleTree(self._items)
        return self._tree.root

    def tree_at(
        self, batch: BatchNumber
    ) -> Optional["MerkleTree | HistoricalTreeView"]:
        """The tree as of ``batch``, or None without an archive / past retention."""
        if self._archive is None:
            return None
        return self._archive.tree_at(batch, self._tree)

    def prove_at(self, key: Key, batch: BatchNumber) -> MerkleProof:
        """Proof for ``key`` against the archived tree as of ``batch``."""
        if self._archive is None:
            raise ProofError("store has no Merkle tree archive")
        return self._archive.prove_at(key, batch, self._tree)

    def archive_covers(self, batch: BatchNumber) -> bool:
        """True when :meth:`tree_at` can answer for ``batch`` from the archive."""
        if self._archive is None:
            return False
        return self._archive.covers(batch)

    def prune_archive(self, upto: BatchNumber) -> int:
        """Retention hook: drop archived states below ``upto`` (checkpoint GC)."""
        if self._archive is None:
            return 0
        return self._archive.prune(upto)

    def compact_archive(self, keep) -> int:
        """Checkpoint hook: merge archive deltas for batches outside ``keep``."""
        if self._archive is None:
            return 0
        return self._archive.compact(keep)

    def preview_root(self, updates: Mapping[Key, Value]) -> Digest:
        """Root the store would have after ``updates``, without applying them."""
        if not updates:
            return self._tree.root
        if self._tree.covers(updates):
            return self._tree.root_with_updates(updates)
        items = dict(self._items)
        items.update(updates)
        return MerkleTree(items).root

    def prove(self, key: Key) -> MerkleProof:
        return self._tree.prove(key)


def proof_payload(proof: MerkleProof) -> list:
    """Encode a proof as a ``stable_encode``-compatible payload (for signing)."""
    return [proof.key, [[step.sibling, step.sibling_is_left] for step in proof.steps]]
