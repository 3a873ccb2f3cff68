"""K601 bad: nothing reads `think_ms`; nothing gives `spare_ms` a second value, only a test `trial_ms`."""

from common.config import CostConfig


def handling_cost(costs, levels: int) -> float:
    return costs.hash_ms + costs.proof_cost_ms(levels) + costs.spare_ms + costs.trial_ms


def slow_disk_costs() -> CostConfig:
    return CostConfig(hash_ms=0.002, per_level_ms=0.001)
