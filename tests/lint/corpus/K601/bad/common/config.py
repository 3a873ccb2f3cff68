"""K601 bad: `think_ms` is validated but never read; `spare_ms` and `trial_ms` are read but never set."""

from dataclasses import dataclass


@dataclass(frozen=True)
class CostConfig:
    hash_ms: float = 0.001
    per_level_ms: float = 0.0004
    think_ms: float = 0.0
    spare_ms: float = 0.01
    trial_ms: float = 0.5

    def proof_cost_ms(self, levels: int) -> float:
        return self.per_level_ms * levels

    def validate(self) -> None:
        if self.think_ms < 0:
            raise ValueError("think_ms must be non-negative")


def roomy_costs() -> CostConfig:
    # The config module's own calls are not use: nothing outside asks for this.
    return CostConfig(spare_ms=0.02)
