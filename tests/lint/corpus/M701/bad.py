"""M701 bad: memos that a deep copy carries over to the tampered twin."""

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple


@dataclass(frozen=True)
class Batch:
    number: int
    txns: Tuple[str, ...] = ()

    @cached_property
    def _digest(self) -> int:
        return sum(map(len, self.txns)) + self.number

    def digest(self) -> int:
        return self._digest


@dataclass(frozen=True)
class Header:
    number: int

    def size(self) -> int:
        if "_size" not in self.__dict__:
            object.__setattr__(self, "_size", self.number * 2)
        return self.__dict__["_size"]
