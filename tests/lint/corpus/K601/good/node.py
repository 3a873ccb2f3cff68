"""K601 good: `per_level_ms` is live through `proof_cost_ms`."""


def handling_cost(costs, levels: int) -> float:
    return costs.hash_ms + costs.proof_cost_ms(levels)
