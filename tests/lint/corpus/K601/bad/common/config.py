"""K601 bad: `think_ms` is declared and validated, but nothing reads it."""

from dataclasses import dataclass


@dataclass(frozen=True)
class CostConfig:
    hash_ms: float = 0.001
    per_level_ms: float = 0.0004
    think_ms: float = 0.0

    def proof_cost_ms(self, levels: int) -> float:
        return self.per_level_ms * levels

    def validate(self) -> None:
        if self.think_ms < 0:
            raise ValueError("think_ms must be non-negative")
