"""K601 good: every field is read outside, directly or through a helper."""

from dataclasses import dataclass


@dataclass(frozen=True)
class CostConfig:
    hash_ms: float = 0.001
    per_level_ms: float = 0.0004

    def proof_cost_ms(self, levels: int) -> float:
        return self.per_level_ms * levels

    def validate(self) -> None:
        if self.hash_ms < 0:
            raise ValueError("hash_ms must be non-negative")
