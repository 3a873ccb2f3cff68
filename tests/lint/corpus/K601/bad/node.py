"""K601 bad: the only consumer never touches `think_ms`."""


def handling_cost(costs, levels: int) -> float:
    return costs.hash_ms + costs.proof_cost_ms(levels)
