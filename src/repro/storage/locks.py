"""Shared/exclusive lock table.

TransEdge itself never locks — its read-only protocol is lock-free and its
read-write path is optimistic.  The lock table exists for the **Augustus
baseline** (Section 5/6.2 of the paper): Augustus read-only transactions take
shared locks on the keys they read at a quorum of replicas, which is exactly
the interference with read-write transactions that the paper's Table 1
measures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set

from repro.common.types import Key


class LockMode(enum.Enum):
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class _KeyLockState:
    shared_holders: Set[str] = field(default_factory=set)
    exclusive_holder: str = ""

    def is_free(self) -> bool:
        return not self.shared_holders and not self.exclusive_holder


class LockTable:
    """Non-blocking lock table: requests either acquire immediately or fail.

    Augustus-style protocols abort on conflict rather than queueing, so the
    table exposes try-acquire semantics and never blocks the simulation.
    """

    def __init__(self) -> None:
        self._locks: Dict[Key, _KeyLockState] = {}
        self._holdings: Dict[str, Set[Key]] = {}

    # -- queries ------------------------------------------------------------

    def holders(self, key: Key) -> List[str]:
        state = self._locks.get(key)
        if state is None:
            return []
        holders = sorted(state.shared_holders)
        if state.exclusive_holder:
            holders.append(state.exclusive_holder)
        return holders

    def is_share_locked(self, key: Key) -> bool:
        state = self._locks.get(key)
        return bool(state and state.shared_holders)

    def can_acquire(self, owner: str, key: Key, mode: LockMode) -> bool:
        state = self._locks.get(key)
        if state is None or state.is_free():
            return True
        if mode is LockMode.SHARED:
            # Shared is compatible with shared; incompatible with a foreign
            # exclusive holder.
            return not state.exclusive_holder or state.exclusive_holder == owner
        # Exclusive requires the key to be free or held only by this owner.
        foreign_shared = state.shared_holders - {owner}
        foreign_exclusive = state.exclusive_holder not in ("", owner)
        return not foreign_shared and not foreign_exclusive

    # -- acquire / release ---------------------------------------------------

    def try_acquire(self, owner: str, keys: Iterable[Key], mode: LockMode) -> bool:
        """Atomically acquire ``mode`` locks on all ``keys`` or none of them."""
        keys = list(keys)
        if not all(self.can_acquire(owner, key, mode) for key in keys):
            return False
        for key in keys:
            state = self._locks.setdefault(key, _KeyLockState())
            if mode is LockMode.SHARED:
                state.shared_holders.add(owner)
            else:
                state.exclusive_holder = owner
            self._holdings.setdefault(owner, set()).add(key)
        return True

    def release_all(self, owner: str) -> None:
        """Release every lock held by ``owner``."""
        for key in sorted(self._holdings.pop(owner, set())):
            state = self._locks.get(key)
            if state is None:
                continue
            state.shared_holders.discard(owner)
            if state.exclusive_holder == owner:
                state.exclusive_holder = ""
            if state.is_free():
                del self._locks[key]

    def held_by(self, owner: str) -> Set[Key]:
        return set(self._holdings.get(owner, set()))

    def __len__(self) -> int:
        return len(self._locks)
