"""Restorable snapshot images of partition-replica state.

A :class:`SnapshotImage` is everything a replica needs to stand in for the
log prefix up to (and including) one batch: the store contents *with their
versions* (so OCC validation behaves identically after a restore), the
prepared-but-undecided distributed transactions in flight at that batch (so
later committed segments still validate), and the certified header of the
checkpoint batch (so CD vectors, LCE and the Merkle root carry over).

Images are digested with the canonical encoding from
:mod:`repro.crypto.hashing`; the digest is what checkpoint votes sign, which
makes a quorum-certified image transferable: a recovering replica can accept
an image from a single (possibly byzantine) peer and check it against the
checkpoint certificate.  Its shape, headers included, is its annotations
(:mod:`repro.common.shapes`), checked once per image object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.common.ids import NO_BATCH, BatchNumber, PartitionId
from repro.common.types import Key, MemoisedValue, Value
from repro.core.batch import CertifiedHeader, CommitRecord, PreparedRecord
from repro.crypto.hashing import Digest, digest_of
from repro.crypto.merkle import MerkleTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checking only
    from repro.core.replica import PartitionReplica


@dataclass(frozen=True)
class SnapshotImage(MemoisedValue):
    """A restorable image of one partition's state at batch ``seq``.

    ``items`` holds ``(key, version, value)`` triples sorted by key;
    ``prepared`` holds ``(batch_number, records)`` groups for every prepare
    group still undecided at the checkpoint.  ``decisions`` holds the
    ``(commit_batch, record)`` 2PC commit/abort records decided within the
    retention window below ``seq`` — these *are* replicated state (every
    replica applies the same committed segments), so they digest identically
    on honest replicas and survive a checkpoint-truncated log; a restored
    replica can keep answering ``DecisionQuery`` for them.  (What stays out
    of the image is the coordinator's *vote collection*, which really is
    leader-volatile; a new leader re-solicits votes instead.)  ``header`` is
    the certified header of batch ``seq`` and is bound to the image through
    its Merkle root rather than the digest, since it carries its own
    consensus certificate.  ``prepared_headers`` carries the certified
    headers of the prepare batches named in ``prepared``: a restored replica
    that is (or becomes) leader needs them to rebuild its coordinator vote
    and resume its predecessor's 2PC, and they are not otherwise
    reconstructible once checkpoint GC truncated the log below them.  Like
    ``header`` they are digest-excluded — each carries its own consensus
    certificate and is verified on install.
    """

    partition: PartitionId
    seq: BatchNumber
    items: Tuple[Tuple[Key, BatchNumber, Value], ...]
    prepared: Tuple[Tuple[BatchNumber, Tuple[PreparedRecord, ...]], ...] = ()
    header: Optional[CertifiedHeader] = None
    decisions: Tuple[Tuple[BatchNumber, CommitRecord], ...] = ()
    prepared_headers: Tuple[CertifiedHeader, ...] = ()

    @cached_property
    def _digest(self) -> Digest:
        return digest_of(
            {
                "partition": self.partition,
                "seq": int(self.seq),
                "items": [
                    [key, int(version), value] for key, version, value in self.items
                ],
                "prepared": [
                    [int(number), [record.payload() for record in records]]
                    for number, records in self.prepared
                ],
                "decisions": [
                    [int(number), record.payload()]
                    for number, record in self.decisions
                ],
            }
        )

    def digest(self) -> Digest:
        """Digest covered by checkpoint votes (header excluded, see class doc)."""
        return self._digest

    def values(self) -> Dict[Key, Value]:
        """The plain key/value map of the image (drops versions)."""
        return {key: value for key, _, value in self.items}

    def store_image(self) -> Dict[Key, Tuple[BatchNumber, Value]]:
        """The image in :meth:`MultiVersionStore.restore_image` form."""
        return {key: (version, value) for key, version, value in self.items}

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def capture(cls, replica: "PartitionReplica", seq: BatchNumber) -> "SnapshotImage":
        """Snapshot ``replica``'s state right after it delivered batch ``seq``."""
        store_image = replica.store.snapshot_image(seq)
        items = tuple(
            (key, version, value)
            for key, (version, value) in sorted(store_image.items())
        )
        prepared: List[Tuple[BatchNumber, Tuple[PreparedRecord, ...]]] = []
        for number in replica.prepared_batches.group_numbers():
            group = replica.prepared_batches.group(number)
            records = tuple(group.records[txn_id] for txn_id in sorted(group.records))
            prepared.append((number, records))
        # Decisions within the retention window below the checkpoint.  The
        # filter is a pure function of ``seq`` (never of GC timing, which can
        # differ between replicas mid-agreement), so honest replicas' image
        # digests stay identical; GC prunes strictly below this floor.
        floor = seq - replica.config.checkpoint.retention_batches
        decisions = tuple(
            (commit_batch, record)
            for txn_id, (commit_batch, record) in sorted(replica.decided.items())
            if commit_batch > floor
        )
        header = replica.last_header
        if header is not None and header.number != seq:
            header = next((h for h in replica.headers if h.number == seq), header)
        # Certified headers of the still-undecided prepare batches: the
        # retention pin in ``prune_headers_below`` guarantees they are still
        # held, even when the prepare batch aged past the retention window.
        prepared_headers = tuple(
            h
            for h in (replica.header_at(number) for number, _ in prepared)
            if h is not None and h.number != seq
        )
        return cls(
            partition=replica.partition,
            seq=seq,
            items=items,
            prepared=tuple(prepared),
            header=header,
            decisions=decisions,
            prepared_headers=prepared_headers,
        )

    @classmethod
    def genesis(
        cls,
        partition: PartitionId,
        initial: Mapping[Key, Value],
        sorted_keys: Optional[Sequence[Key]] = None,
    ) -> "SnapshotImage":
        """The pre-history image: the preloaded data at the reserved version.

        The genesis image has no certificate — its authenticity is checked by
        replaying the log from batch 0, whose certified Merkle root covers
        exactly the preloaded data.  ``sorted_keys`` are ``initial``'s keys
        in order, for a caller that already holds them.
        """
        keys = sorted(initial) if sorted_keys is None else sorted_keys
        items = tuple((key, NO_BATCH, initial[key]) for key in keys)
        return cls(partition=partition, seq=NO_BATCH, items=items)


@dataclass(frozen=True)
class PartitionGenesis:
    """What every replica of one partition starts from, built once and shared.

    All 3f+1 members begin from the same bytes, so the deployment sorts and
    hashes them once: ``data`` is a read-only view that stores layer their
    writes over, ``tree`` is the prototype each member takes a
    :meth:`~repro.crypto.merkle.MerkleTree.clone` of, and ``image`` is the
    frozen genesis snapshot they all hold.
    """

    data: Mapping[Key, Value]
    tree: MerkleTree
    image: SnapshotImage

    @classmethod
    def build(cls, partition: PartitionId, initial: Mapping[Key, Value]) -> "PartitionGenesis":
        data = MappingProxyType(dict(initial))
        tree = MerkleTree(data)
        return cls(data, tree, SnapshotImage.genesis(partition, data, tree.keys()))


class SnapshotStore:
    """Holds a replica's snapshot images: the genesis image, tentative images
    awaiting checkpoint agreement, and the latest stable one."""

    def __init__(self) -> None:
        self._images: Dict[BatchNumber, SnapshotImage] = {}
        self.genesis: Optional[SnapshotImage] = None

    def set_genesis(self, image: SnapshotImage) -> None:
        self.genesis = image

    def add(self, image: SnapshotImage) -> None:
        self._images[image.seq] = image

    def get(self, seq: BatchNumber) -> Optional[SnapshotImage]:
        return self._images.get(seq)

    def retain_only(self, seq: BatchNumber) -> None:
        """Keep only the image at ``seq`` (it became the stable checkpoint)."""
        self._images = {s: img for s, img in self._images.items() if s == seq}