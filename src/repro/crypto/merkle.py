"""Merkle tree authenticated data structure (ADS).

TransEdge certifies the integrity of committed data with a Merkle tree per
partition: every replica of a cluster computes the tree's new root while
processing a batch — once per batch — the root is agreed on through the BFT
layer, and read-only clients verify returned values against the agreed root
using membership proofs (Sections 3.4 and 4.1/4.2 of the paper).

The tree is built over the partition's key/value map: leaves are
``H(key || H(value))`` in sorted key order, internal nodes are
``H(left || right)``.  An odd node at any level is promoted unchanged.  A
partition's genesis tree is built once and every replica starts from a
:meth:`MerkleTree.clone` of it.  A batch's write-sets change only the root
paths of the written keys: :meth:`MerkleTree.path_overlay` hashes those paths
without touching the tree (the root a replica checks before voting),
:class:`MerkleStore` keeps that one result until the batch is delivered, and
:meth:`MerkleTree.install` swaps it in; the cells swapped out are the reverse
delta the store's archive keeps to answer for the tree of any recent batch
when a read-only client asks for an older snapshot in round two.  A brand-new
key shifts leaf positions and rebuilds the tree.

The members of a cluster hold equal trees, so they would hash the same delta
once each.  A deployment gives all its stores one :class:`DeltaMemo`: the
first member to prepare ``(root, write-set)`` hashes it, the others copy the
result.
"""

from __future__ import annotations

import hashlib
from collections import ChainMap, OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ProofError
from repro.common.ids import NO_BATCH, BatchNumber
from repro.common.types import Key, Value
from repro.crypto.hashing import Digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (archive imports merkle)
    from repro.crypto.archive import HistoricalTreeView, MerkleTreeArchive

# Every node digest in this module goes straight to hashlib through this one
# binding: a wrapper frame per node cost as much as the hash itself.
_sha256 = hashlib.sha256

#: Root value of a tree with no leaves.
EMPTY_ROOT: Digest = _sha256(b"transedge:empty-merkle-tree").digest()

#: Cells of some root paths: per tree level (leaves first), node index -> digest.
PathCells = List[Dict[int, Digest]]


def leaf_digest(key: Key, value: Value) -> Digest:
    """Digest of one leaf: binds the key to a digest of its value."""
    return _sha256(b"L" + key.encode("utf-8") + b"\x00" + _sha256(value).digest()).digest()


def _parent_digest(left: Digest, right: Digest) -> Digest:
    return _sha256(b"I" + left + right).digest()


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

    Updates to keys that are *already present* go through one kernel,
    :meth:`path_overlay`, which hashes the affected root paths without
    mutating anything, and one mutation, :meth:`install`.
    :meth:`root_with_updates` is the kernel alone — how replicas validate the
    Merkle root a leader proposes before voting for it — and
    :meth:`update_values` is kernel plus install.  Inserting new keys changes
    leaf positions and requires a rebuild.
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
        return all(map(self._index.__contains__, keys))

    def path_overlay(self, updates: Mapping[Key, Value]) -> PathCells:
        """The digests the root paths of ``updates`` would take; nothing mutates.

        ``updates`` must be non-empty and only name keys already in the tree.
        The last level of the result holds the would-be root at index 0.
        Cost is O(len(updates) · log K) hashes — the only place a batch's
        Merkle delta is hashed.
        """
        sha256 = _sha256
        try:
            cells = {self._index[key]: leaf_digest(key, value) for key, value in updates.items()}
        except KeyError:
            raise ProofError("only keys already in the tree can be updated in place") from None
        overlay = [cells]
        for level in self._levels[:-1]:
            size = len(level)
            parents: Dict[int, Digest] = {}
            for index in cells:
                parent = index >> 1
                if parent in parents:
                    continue
                left = index & -2
                right = left + 1
                if right == size:  # odd node: promoted unchanged
                    parents[parent] = cells[left]
                    continue
                parents[parent] = sha256(  # _parent_digest, inlined: one frame per node
                    b"I"
                    + (cells[left] if left in cells else level[left])
                    + (cells[right] if right in cells else level[right])
                ).digest()
            overlay.append(parents)
            cells = parents
        return overlay

    def install(self, overlay: PathCells) -> PathCells:
        """Swap ``overlay``'s cells into the tree; return the superseded cells.

        The swap is in place on both sides: on return the dictionaries of
        ``overlay`` (the same list is returned) hold the digests the tree had
        before, i.e. the reverse delta that restores it — the raw material of
        :class:`~repro.crypto.archive.MerkleTreeArchive`.
        """
        for level, cells in zip(self._levels, overlay):
            for index, digest in cells.items():
                cells[index] = level[index]
                level[index] = digest
        return overlay

    def update_values(self, updates: Mapping[Key, Value]) -> Digest:
        """Update the values of existing keys in place and return the new root."""
        if updates:
            self.install(self.path_overlay(updates))
        return self.root

    def root_with_updates(self, updates: Mapping[Key, Value]) -> Digest:
        """Root the tree *would* have after ``updates``, without mutating it."""
        if not updates:
            return self.root
        return self.path_overlay(updates)[-1][0]

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
    client treats it as a byzantine response and retries elsewhere).  A proof
    whose steps do not have the declared shape is one more failure, never an
    exception: it arrives from an untrusted replica.
    """
    if proof.key != key:
        return False
    digest = leaf_digest(key, value)
    try:
        for step in proof.steps:
            if step.sibling_is_left:
                digest = _parent_digest(step.sibling, digest)
            else:
                digest = _parent_digest(digest, step.sibling)
    except (TypeError, AttributeError):
        return False
    return digest == root


@dataclass(frozen=True)
class _Delta:
    """What hashing a write-set against one tree produced.

    Exactly one field is set: the path cells to install (every key was
    already a leaf) or the tree that replaces the old one (some key is new).
    """

    overlay: Optional[PathCells] = None
    rebuilt: Optional[MerkleTree] = None

    @property
    def root(self) -> Digest:
        """Root the tree has once this delta is in."""
        if self.rebuilt is None:
            return self.overlay[-1][0]
        return self.rebuilt.root

    def copy(self) -> "_Delta":
        """A copy a store may own: fresh cell dicts or a tree clone.

        :meth:`MerkleTree.install` swaps cells into the dicts it is handed
        and a live tree is updated in place, so a shared delta is never
        handed out itself.  The digests are immutable and stay shared.
        """
        if self.rebuilt is None:
            return _Delta(overlay=[dict(cells) for cells in self.overlay])
        return _Delta(rebuilt=self.rebuilt.clone())


#: Entries a :class:`DeltaMemo` keeps.  A perfbench deployment re-asks at
#: most 5 recent keys; a chaos plan, with members crashing, catching up and
#: replaying, needs about 64 to hash no key twice.
DELTA_MEMO_SIZE = 64


class DeltaMemo:
    """Deltas by ``(base root, write-set)``, shared by a deployment's stores.

    Sound for the reason verification verdicts are: a root binds every leaf,
    so two stores at equal roots hold equal trees and the same write-set
    hashes to the same delta.  A store whose state differs keys differently
    and hashes for itself.  Entries stay pristine: a store installs a
    :meth:`_Delta.copy`, never the entry.  One memo belongs to one
    deployment, so one run never reuses another's hashing.
    """

    def __init__(self, size: int = DELTA_MEMO_SIZE) -> None:
        self._size = size
        self._entries: "OrderedDict[Hashable, _Delta]" = OrderedDict()

    def lookup(self, key: Hashable) -> Optional[_Delta]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def store(self, key: Hashable, entry: _Delta) -> None:
        self._entries[key] = entry
        if len(self._entries) > self._size:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class _PreparedUpdate:
    """What :meth:`MerkleStore.preview_root` computed, kept for the matching apply."""

    updates: Dict[Key, Value]
    #: The tree it was computed against and that tree's root at the time
    #: (an in-place update keeps the object and moves the root).
    base: "MerkleTree"
    base_root: Digest
    #: This store's own copy of the delta to install.
    delta: _Delta


class MerkleStore:
    """A key/value map together with its current Merkle tree.

    Replicas keep one ``MerkleStore`` per partition; ``apply`` folds in a
    batch's visible write-sets and updates the tree, returning the new root
    that is then agreed on through consensus.  ``initial`` is only ever read
    (writes land in an overlay in front of it), so the replicas of a cluster
    can share one genesis mapping; ``tree`` is a prebuilt tree over exactly
    ``initial`` for this store to own (a genesis :meth:`MerkleTree.clone`),
    built here when omitted.

    A replica previews a batch's root to validate it and applies the same
    updates at delivery, so the store retains exactly one prepared update:
    the last :meth:`preview_root`'s updates, its path overlay (or rebuilt
    tree), and the tree object and root it was computed against.
    :meth:`apply` installs it instead of hashing again when the updates are
    equal and the live tree is still that object at that root, recomputes
    otherwise, and drops it either way (a recovery reset or snapshot install
    replaces the whole store), so at most one batch's overlay is ever held.

    Stores built with the same ``deltas`` memo hash each ``(root,
    write-set)`` once between them.  A store whose tree was written behind
    its back (through :attr:`tree`) no longer holds a tree over its items,
    and from then on hashes for itself.

    When constructed with a :class:`~repro.crypto.archive.MerkleTreeArchive`,
    every batch-tagged ``apply`` archives the superseded tree state, so
    :meth:`tree_at`/:meth:`prove_at` can answer round-2 snapshot reads for
    recent batches without materialising or rebuilding anything.
    """

    def __init__(
        self,
        initial: Optional[Mapping[Key, Value]] = None,
        archive: Optional["MerkleTreeArchive"] = None,
        base_batch: BatchNumber = NO_BATCH,
        tree: Optional[MerkleTree] = None,
        deltas: Optional[DeltaMemo] = None,
    ) -> None:
        base = initial if initial is not None else {}
        # Writes land in ``_written``; reads fall through to the shared base.
        self._written: Dict[Key, Value] = {}
        self._items: Mapping[Key, Value] = ChainMap(self._written, base)
        self._tree = tree if tree is not None else MerkleTree(base)
        # The root this store last left its tree at: any other root means a
        # write behind its back.
        self._root = self._tree.root
        self._prepared: Optional[_PreparedUpdate] = None
        self._deltas = deltas
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

    def _prepare(self, updates: Mapping[Key, Value]) -> _PreparedUpdate:
        """Non-empty ``updates`` hashed against the live tree — the retained
        result when that is for equal updates on this tree at this root."""
        tree, kept = self._tree, self._prepared
        if (
            kept is not None
            and (kept.base is tree and kept.base_root == tree.root)  # still that tree, unmoved
            and kept.updates == updates
        ):
            return kept
        root = tree.root
        if root != self._root:  # written behind: the tree is not over ``_items``
            self._deltas = None
        if self._deltas is None:
            delta = self._hash(updates)
        else:
            key = (root, tuple(updates.items()))
            delta = self._deltas.lookup(key)
            if delta is None:
                delta = self._hash(updates)
                self._deltas.store(key, delta)
            delta = delta.copy()  # the memo's entry stays pristine
        # ``updates`` is copied: the caller's mapping may change before the apply.
        return _PreparedUpdate(dict(updates), tree, root, delta)

    def _hash(self, updates: Mapping[Key, Value]) -> _Delta:
        if self._tree.covers(updates):
            return _Delta(overlay=self._tree.path_overlay(updates))
        return _Delta(rebuilt=MerkleTree({**self._items, **updates}))

    def preview_root(self, updates: Mapping[Key, Value]) -> Digest:
        """Root the store would have after ``updates``, without applying them.

        The result is retained (replacing any earlier preview's) for the
        :meth:`apply` of equal updates; asking again for equal updates on an
        unchanged tree — a leader validating its own proposal — hashes nothing.
        """
        if not updates:
            return self._tree.root
        self._prepared = self._prepare(updates)
        return self._prepared.delta.root

    def apply(self, updates: Mapping[Key, Value], batch: Optional[BatchNumber] = None) -> Digest:
        """Apply ``updates`` and return the new root.

        Updates to existing keys take the incremental path (only the affected
        tree paths change); introducing a brand-new key rebuilds the tree,
        since leaf positions shift.  A matching :meth:`preview_root`'s work
        is installed rather than repeated.  ``batch`` tags the update for the
        archive; an untagged mutating apply clears the archive, since its
        deltas would no longer describe the live tree.
        """
        if not updates:
            return self._tree.root
        delta = self._prepare(updates).delta
        self._prepared = None
        archive = self._archive
        if archive is not None:
            # The archive hears of a mutation before it happens (it may
            # refuse the batch number).  It is handed the overlay itself:
            # install() below turns those very cells into the reverse delta.
            if batch is None:
                archive.invalidate()
            elif delta.rebuilt is None:
                archive.record_delta(batch, delta.overlay)
            else:
                archive.record_tree(batch, self._tree)
        self._written.update(updates)
        if delta.rebuilt is None:
            self._tree.install(delta.overlay)
        else:
            self._tree = delta.rebuilt
        self._root = self._tree.root
        return self._root

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
