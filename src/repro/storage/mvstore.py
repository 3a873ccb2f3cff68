"""Multi-version key-value store.

Each partition replica keeps its data in a :class:`MultiVersionStore`.  Every
visible write is tagged with the batch number in which it became visible, so
the store can answer three kinds of reads:

* ``latest`` — the current committed value and its version (used when serving
  client reads for read-write transactions and round-1 read-only requests);
* ``as_of`` — the value visible at a given batch number (used for round-2
  read-only requests that need an older or newer-but-specific snapshot);
* ``version_of`` — just the version, used by optimistic validation
  (Definition 3.1, rule 1: a read is stale when the key's latest version is
  newer than the version the transaction read).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.common.errors import StorageError, UnknownKeyError
from repro.common.ids import NO_BATCH, BatchNumber
from repro.common.types import Key, Value, VersionedValue


@dataclass
class _VersionChain:
    """Versions of one key, ordered by ascending batch number."""

    versions: List[BatchNumber]
    values: List[Value]

    def latest(self) -> VersionedValue:
        return VersionedValue(value=self.values[-1], version=self.versions[-1])

    def as_of(self, batch: BatchNumber) -> Optional[VersionedValue]:
        """Newest version with ``version <= batch`` (None when none exists)."""
        index = bisect.bisect_right(self.versions, batch) - 1
        if index < 0:
            return None
        return VersionedValue(value=self.values[index], version=self.versions[index])

    def append(self, batch: BatchNumber, value: Value) -> None:
        if self.versions and batch < self.versions[-1]:
            raise StorageError(
                f"version {batch} is older than latest version {self.versions[-1]}"
            )
        if self.versions and batch == self.versions[-1]:
            # Two writes in the same batch: last writer wins.
            self.values[-1] = value
            return
        self.versions.append(batch)
        self.values.append(value)


class MultiVersionStore:
    """Versioned key/value storage for one partition.

    ``initial`` is kept as a shared base layer at version ``NO_BATCH`` and is
    never written to: a key gets its own version chain on its first write,
    so every replica of a cluster can start from one genesis mapping.  Keys
    iterate in base order first, then in order of their first write.
    """

    def __init__(self, initial: Optional[Mapping[Key, Value]] = None) -> None:
        self._base: Mapping[Key, Value] = initial if initial is not None else {}
        self._chains: Dict[Key, _VersionChain] = {}
        # Number of base keys that own a chain (which shadows the base entry).
        self._shadowed = 0

    # -- writes -------------------------------------------------------------

    def apply(self, writes: Mapping[Key, Value], batch: BatchNumber) -> None:
        """Make ``writes`` visible at version ``batch``."""
        if batch <= NO_BATCH:
            raise StorageError(f"cannot apply writes at reserved version {batch}")
        for key, value in writes.items():
            chain = self._chains.get(key)
            if chain is None:
                if key in self._base:
                    chain = _VersionChain(versions=[NO_BATCH], values=[self._base[key]])
                    self._shadowed += 1
                else:
                    chain = _VersionChain(versions=[], values=[])
                self._chains[key] = chain
            chain.append(batch, value)

    def preload(self, items: Mapping[Key, Value]) -> None:
        """Load initial data at the reserved pre-history version."""
        for key, value in items.items():
            if key in self:
                raise StorageError(f"key {key!r} already preloaded")
            self._chains[key] = _VersionChain(versions=[NO_BATCH], values=[value])

    # -- checkpointing support ----------------------------------------------

    def _iter_as_of(self, batch: BatchNumber) -> Iterator[Tuple[Key, BatchNumber, Value]]:
        """``(key, version, value)`` of every key visible at ``batch``."""
        chains = self._chains
        for key in self.keys():
            chain = chains.get(key)
            if chain is not None:
                versioned = chain.as_of(batch)
                if versioned is not None:
                    yield key, versioned.version, versioned.value
            elif batch >= NO_BATCH:
                yield key, NO_BATCH, self._base[key]

    def snapshot_image(self, batch: BatchNumber) -> Dict[Key, Tuple[BatchNumber, Value]]:
        """Latest ``(version, value)`` of every key visible at ``batch``.

        This is the restorable form of the store used by checkpoint images:
        unlike :meth:`snapshot_as_of` it keeps the version of each value, so a
        replica restored from the image answers ``version_of``/``as_of``
        queries identically to one that processed the whole log.
        """
        return {key: (version, value) for key, version, value in self._iter_as_of(batch)}

    def restore_image(self, image: Mapping[Key, Tuple[BatchNumber, Value]]) -> None:
        """Rebuild an empty store from a checkpoint image (one version per key)."""
        if self._chains or self._base:
            raise StorageError("restore_image requires an empty store")
        for key, (version, value) in image.items():
            self._chains[key] = _VersionChain(versions=[version], values=[value])

    def prune(self, upto: BatchNumber) -> int:
        """Drop versions older than the newest version ``<= upto``.

        After pruning, ``as_of(key, batch)`` stays exact for every
        ``batch >= upto``; older snapshots resolve to the oldest retained
        version.  Returns the number of versions removed.
        """
        pruned = 0
        for chain in self._chains.values():
            cut = bisect.bisect_right(chain.versions, upto) - 1
            if cut > 0:
                del chain.versions[:cut]
                del chain.values[:cut]
                pruned += cut
        return pruned

    def max_chain_length(self) -> int:
        """Length of the longest version chain (0 for an empty store)."""
        # With no chain at all, every base key holds exactly its one version.
        unwritten = 1 if self._base else 0
        return max((len(chain.versions) for chain in self._chains.values()), default=unwritten)

    def total_versions(self) -> int:
        """Total number of stored versions across all keys."""
        unwritten = len(self._base) - self._shadowed
        return unwritten + sum(len(chain.versions) for chain in self._chains.values())

    # -- reads --------------------------------------------------------------

    def __contains__(self, key: Key) -> bool:
        return key in self._chains or key in self._base

    def __len__(self) -> int:
        return len(self._base) - self._shadowed + len(self._chains)

    def keys(self) -> Iterable[Key]:
        if not self._base:
            return self._chains.keys()
        if len(self._chains) == self._shadowed:
            return self._base.keys()
        base = self._base
        return [*base, *(key for key in self._chains if key not in base)]

    def _unwritten(self, key: Key) -> Optional[VersionedValue]:
        """The base layer's answer for a key that owns no chain."""
        if key in self._base:
            return VersionedValue(value=self._base[key], version=NO_BATCH)
        return None

    def latest(self, key: Key) -> VersionedValue:
        chain = self._chains.get(key)
        versioned = chain.latest() if chain is not None else self._unwritten(key)
        if versioned is None:
            raise UnknownKeyError(key)
        return versioned

    def get(self, key: Key) -> Optional[VersionedValue]:
        chain = self._chains.get(key)
        return chain.latest() if chain is not None else self._unwritten(key)

    def version_of(self, key: Key) -> BatchNumber:
        """Latest visible version of ``key`` (``NO_BATCH`` for unknown keys)."""
        chain = self._chains.get(key)
        if chain is None:
            return NO_BATCH
        return chain.versions[-1]

    def as_of(self, key: Key, batch: BatchNumber) -> Optional[VersionedValue]:
        """Value of ``key`` as of batch ``batch`` (inclusive)."""
        chain = self._chains.get(key)
        if chain is not None:
            return chain.as_of(batch)
        return self._unwritten(key) if batch >= NO_BATCH else None

    def snapshot_latest(self) -> Dict[Key, Value]:
        """Materialise the latest visible value of every key."""
        latest = dict(self._base)
        latest.update((key, chain.values[-1]) for key, chain in self._chains.items())
        return latest

    def iter_items_as_of(self, batch: BatchNumber) -> Iterator[Tuple[Key, Value]]:
        """Iterate the ``(key, value)`` pairs visible at batch ``batch``.

        The streaming primitive behind :meth:`snapshot_as_of`; use it
        directly when a single pass suffices and no dict is needed.
        """
        for key, _, value in self._iter_as_of(batch):
            yield key, value

    def snapshot_as_of(self, batch: BatchNumber) -> Dict[Key, Value]:
        """Materialise the state visible at batch ``batch``."""
        return dict(self.iter_items_as_of(batch))

    def history(self, key: Key) -> Tuple[Tuple[BatchNumber, Value], ...]:
        """Full version history of ``key`` (oldest first)."""
        chain = self._chains.get(key)
        if chain is not None:
            return tuple(zip(chain.versions, chain.values))
        if key in self._base:
            return ((NO_BATCH, self._base[key]),)
        raise UnknownKeyError(key)
