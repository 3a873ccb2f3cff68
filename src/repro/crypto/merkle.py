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
:meth:`MerkleTree.clone` of it.  A batch's write-set changes only the root
paths of the written keys: :meth:`MerkleTree.path_overlay` hashes those paths
without touching the tree and :meth:`MerkleTree.install` swaps them in; the
cells swapped out are the reverse delta the store's archive keeps to answer
for the tree of any recent batch when a read-only client asks for an older
snapshot in round two.  A brand-new key shifts leaf positions:
:meth:`MerkleTree.inserted` builds the new tree from the old one's leaves.

A membership proof is one walk, :func:`proof_steps`, over a tree's digest
levels and, for an archived tree, the reverse deltas that lie on top of them;
its steps are plain :class:`ProofStep` pairs that :func:`verify_proof`
hashes inline, one ``sha256`` per step.

A delta depends only on the tree, which its root binds, and the write-set.
The members of a cluster hold equal trees, so a deployment gives all its
stores one :class:`DeltaMemo`: the first member to preview or apply
``(root, write-set)`` hashes it, and every other lookup — the leader's own
validation, each member's delivery — finds it there.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Hashable, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

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


class ProofStep(NamedTuple):
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


#: Builds a :class:`ProofStep` without the Python frame of its ``__new__``.
_new_step = tuple.__new__


def proof_steps(
    levels: Sequence[Sequence[Digest]],
    leaf_index: int,
    deltas: Sequence[PathCells] = (),
) -> Tuple[ProofStep, ...]:
    """The sibling walk shared by live trees and archived historical views.

    ``levels`` are a tree's digest levels (leaves first).  ``deltas`` are
    the reverse deltas of a historical view, oldest first: a node's digest
    is the first delta cell that holds it, else the level's.  Keeping the
    walk — including the odd-node-promotion rule (an odd node contributes no
    sibling at its level; neither does the root) — in one place is what
    makes archive proofs byte-identical to live-tree proofs by construction.
    """
    index = leaf_index
    steps: List[ProofStep] = []
    for level_number, level in enumerate(levels):
        sibling = index ^ 1
        if sibling < len(level):
            digest = level[sibling]
            for delta in deltas:
                cells = delta[level_number]
                if sibling in cells:
                    digest = cells[sibling]
                    break
            steps.append(_new_step(ProofStep, (digest, sibling < index)))
        index >>= 1
    return tuple(steps)


class MerkleTree:
    """A Merkle tree over a key/value mapping.

    Updates to keys that are *already present* go through one kernel,
    :meth:`path_overlay`, which hashes the affected root paths without
    mutating anything, and one mutation, :meth:`install`.
    :meth:`root_with_updates` is the kernel alone and :meth:`update_values`
    is kernel plus install.  Inserting new keys changes leaf positions:
    :meth:`inserted` builds a new tree, hashing only the updated leaves.
    """

    def __init__(self, items: Mapping[Key, Value]) -> None:
        self._keys: List[Key] = sorted(items)
        self._index: Dict[Key, int] = {key: i for i, key in enumerate(self._keys)}
        self._grow([leaf_digest(key, items[key]) for key in self._keys])

    def _grow(self, leaves: List[Digest]) -> None:
        """Hash the internal levels above ``leaves``, in ``_keys`` order."""
        self._levels: List[List[Digest]] = [leaves]
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
        inserting a key builds a new tree object); only the digest levels,
        which :meth:`install` overwrites in place, are copied.
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

    def inserted(self, updates: Mapping[Key, Value]) -> "MerkleTree":
        """A new tree over this tree's leaves with ``updates`` (some keys new).

        Leaf positions shift, so every internal node is hashed again; the
        leaves are this tree's own digests, and only the updated ones are
        hashed.  This tree is left as it was.
        """
        digests = dict(zip(self._keys, self._levels[0]))
        for key, value in updates.items():
            digests[key] = leaf_digest(key, value)
        tree = MerkleTree.__new__(MerkleTree)
        tree._keys = sorted(digests)
        tree._index = {key: i for i, key in enumerate(tree._keys)}
        tree._grow([digests[key] for key in tree._keys])
        return tree

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
        index = self._index.get(key)
        if index is None:
            raise ProofError(f"key {key!r} is not in the Merkle tree")
        return MerkleProof(key=key, steps=proof_steps(self._levels, index))


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
    sha256 = _sha256
    digest = leaf_digest(key, value)
    try:
        for step in proof.steps:
            # _parent_digest, inlined: one frame per step
            if step.sibling_is_left:
                digest = sha256(b"I" + step.sibling + digest).digest()
            else:
                digest = sha256(b"I" + digest + step.sibling).digest()
    except (TypeError, AttributeError):
        return False
    return digest == root


@dataclass(frozen=True)
class _Delta:
    """What hashing a write-set against one tree produced.

    Exactly one field is set: the path cells to install (every key was
    already a leaf) or the tree that replaces the old one (some key is new).
    A delta is a fact of its ``(root, write-set)``: it lives in a
    :class:`DeltaMemo`, and a store installs a :meth:`copy` of it.
    """

    overlay: Optional[PathCells] = None
    rebuilt: Optional[MerkleTree] = None

    @property
    def root(self) -> Digest:
        """Root the tree has once this delta is in."""
        if self.rebuilt is None:
            return self.overlay[-1][0]
        return self.rebuilt.root

    @property
    def weight(self) -> int:
        """Digests the delta holds: its overlay's cells, or its tree's leaves."""
        if self.rebuilt is None:
            return sum(len(cells) for cells in self.overlay)
        return len(self.rebuilt)

    def copy(self) -> "_Delta":
        """A copy a store may own: fresh cell dicts or a tree clone.

        :meth:`MerkleTree.install` swaps cells into the dicts it is handed
        and a live tree is updated in place, so a shared delta is never
        handed out itself.  The digests are immutable and stay shared.
        """
        if self.rebuilt is None:
            return _Delta(overlay=[dict(cells) for cells in self.overlay])
        return _Delta(rebuilt=self.rebuilt.clone())


#: What a :class:`DeltaMemo` may hold, in :attr:`_Delta.weight`: overlay
#: cells and rebuilt trees' leaves.  Bounding entries instead would let a few
#: dozen inserting batches keep a whole tree each.  At seed 0 a ``local_write``
#: deployment peaks at 49 380 (20 batches of wide paths) and a chaos plan at
#: under 400 (with members crashing, catching up and replaying).
DELTA_MEMO_BUDGET = 1 << 16


class DeltaMemo:
    """Deltas by ``(base root, write-set)``, shared by a deployment's stores.

    Sound for the reason verification verdicts are: a root binds every leaf,
    so two stores at equal roots hold equal trees and the same write-set
    hashes to the same delta.  A store whose state differs keys differently
    and hashes for itself.  Entries stay pristine: a store installs a
    :meth:`_Delta.copy`, never the entry.  One memo belongs to one
    deployment, so one run never reuses another's hashing.

    The least recently used entries go once the memo holds more than
    ``budget`` digests, except the newest, whatever it weighs: a tree wider
    than the budget is still built once per cluster.
    """

    def __init__(self, budget: int = DELTA_MEMO_BUDGET) -> None:
        self._budget = budget
        self._held = 0
        self._entries: "OrderedDict[Hashable, _Delta]" = OrderedDict()

    def lookup(self, key: Hashable) -> Optional[_Delta]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def store(self, key: Hashable, entry: _Delta) -> None:
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self._held -= replaced.weight
        self._entries[key] = entry
        self._held += entry.weight
        while self._held > self._budget and len(self._entries) > 1:
            self._held -= self._entries.popitem(last=False)[1].weight

    @property
    def held(self) -> int:
        """Digests the entries hold, by :attr:`_Delta.weight`."""
        return self._held

    def __len__(self) -> int:
        return len(self._entries)


class MerkleStore:
    """A partition's Merkle tree, the archive of its recent states, and a
    :class:`DeltaMemo` to find each batch's delta in.

    Replicas keep one ``MerkleStore`` per partition; ``apply`` folds in a
    batch's visible write-set and returns the new root that is then agreed
    on through consensus.  ``tree`` is the tree for this store to own (a
    genesis :meth:`MerkleTree.clone`, say); ``archive`` is re-based at
    ``base_batch``.

    :meth:`preview_root` and :meth:`apply` look the delta up in ``deltas``
    and hash it only on a miss, so stores sharing one memo — the members of
    a cluster — hash each ``(root, write-set)`` once between them.  A store
    built without one gets a private memo.  Every ``apply`` names its batch
    and archives the superseded tree state, so :meth:`tree_at`/:meth:`prove_at`
    can answer round-2 snapshot reads for recent batches without
    materialising or rebuilding anything.
    """

    def __init__(
        self,
        tree: MerkleTree,
        archive: "MerkleTreeArchive",
        base_batch: BatchNumber = NO_BATCH,
        deltas: Optional[DeltaMemo] = None,
    ) -> None:
        self._tree = tree
        self._deltas = deltas if deltas is not None else DeltaMemo()
        self._archive = archive
        archive.reset(base_batch)

    @property
    def root(self) -> Digest:
        return self._tree.root

    @property
    def tree(self) -> MerkleTree:
        return self._tree

    @property
    def archive(self) -> "MerkleTreeArchive":
        return self._archive

    def __len__(self) -> int:
        return len(self._tree)

    def __contains__(self, key: Key) -> bool:
        return key in self._tree

    def _delta(self, updates: Mapping[Key, Value]) -> _Delta:
        """The memo's delta of non-empty ``updates`` on the live tree, hashed on a miss."""
        tree = self._tree
        key = (tree.root, tuple(updates.items()))
        delta = self._deltas.lookup(key)
        if delta is None:
            if tree.covers(updates):
                delta = _Delta(overlay=tree.path_overlay(updates))
            else:
                delta = _Delta(rebuilt=tree.inserted(updates))
            self._deltas.store(key, delta)
        return delta

    def preview_root(self, updates: Mapping[Key, Value]) -> Digest:
        """Root the store would have after ``updates``, without applying them."""
        if not updates:
            return self._tree.root
        return self._delta(updates).root

    def apply(self, updates: Mapping[Key, Value], batch: BatchNumber) -> Digest:
        """Apply ``updates`` as batch ``batch`` and return the new root.

        Updates to existing keys install the delta's path cells; a brand-new
        key swaps in the delta's rebuilt tree.  Either way the store installs
        its own :meth:`_Delta.copy`, and the memo's entry stays pristine.
        """
        if not updates:
            return self._tree.root
        delta = self._delta(updates).copy()
        # The archive hears of a mutation before it happens (it may refuse
        # the batch number).  It is handed the overlay itself: install()
        # below turns those very cells into the reverse delta.
        if delta.rebuilt is None:
            self._archive.record_delta(batch, delta.overlay)
            self._tree.install(delta.overlay)
        else:
            self._archive.record_tree(batch, self._tree)
            self._tree = delta.rebuilt
        return self._tree.root

    def tree_at(
        self, batch: BatchNumber
    ) -> Optional["MerkleTree | HistoricalTreeView"]:
        """The tree as of ``batch``, or None past the archive's retention."""
        return self._archive.tree_at(batch, self._tree)

    def prove_at(self, key: Key, batch: BatchNumber) -> MerkleProof:
        """Proof for ``key`` against the archived tree as of ``batch``."""
        return self._archive.prove_at(key, batch, self._tree)

    def archive_covers(self, batch: BatchNumber) -> bool:
        """True when :meth:`tree_at` can answer for ``batch`` from the archive."""
        return self._archive.covers(batch)

    def prune_archive(self, upto: BatchNumber) -> int:
        """Retention hook: drop archived states below ``upto`` (checkpoint GC)."""
        return self._archive.prune(upto)

    def compact_archive(self, keep) -> int:
        """Checkpoint hook: merge archive deltas for batches outside ``keep``."""
        return self._archive.compact(keep)
