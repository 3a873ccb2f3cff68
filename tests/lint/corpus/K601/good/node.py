"""K601 good: `per_level_ms` is live through `proof_cost_ms`; every field has a setter."""

from dataclasses import replace

from common.config import CostConfig


def handling_cost(costs, levels: int) -> float:
    return costs.hash_ms + costs.proof_cost_ms(levels) + costs.spare_ms + costs.sign_ms


def slow_disk_costs() -> CostConfig:
    return CostConfig(hash_ms=0.002, per_level_ms=0.001)


def make_costs(**overrides) -> CostConfig:
    return CostConfig(**overrides)


def roomy_costs(costs: CostConfig) -> CostConfig:
    return replace(costs, per_level_ms=0.002)


ROOMY = make_costs(spare_ms=0.02)
