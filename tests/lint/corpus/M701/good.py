"""M701 good: memo-carrying value classes derive from the copy-safe base."""

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple


class MemoisedValue:
    def __getstate__(self) -> dict:
        return {name: self.__dict__[name] for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class Batch(MemoisedValue):
    number: int
    txns: Tuple[str, ...] = ()

    @cached_property
    def _digest(self) -> int:
        return sum(map(len, self.txns)) + self.number


@dataclass(frozen=True)
class Vote:
    """No memo: nothing to lose, no base needed; normalising a declared field is not a memo."""

    number: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "number", int(self.number))


class Tally:
    """Not a dataclass: a plain object's attributes are its state, not memos."""

    @cached_property
    def total(self) -> int:
        return 0
