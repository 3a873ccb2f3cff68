"""K601 good: every field is read outside (directly or through a helper) and set outside."""

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class CostConfig:
    hash_ms: float = 0.001
    per_level_ms: float = 0.0004
    spare_ms: float = 0.01
    #: One value in use, declared as what it is: a constant, not a field.
    sign_ms: ClassVar[float] = 0.02

    def proof_cost_ms(self, levels: int) -> float:
        return self.per_level_ms * levels

    def validate(self) -> None:
        if self.hash_ms < 0:
            raise ValueError("hash_ms must be non-negative")
