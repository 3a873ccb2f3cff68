"""K601 bad: a unit test shrinking `trial_ms` is not a second value in use."""

from common.config import CostConfig
from node import handling_cost


def test_a_short_trial_is_cheaper():
    assert handling_cost(CostConfig(trial_ms=0.1), 3) < handling_cost(CostConfig(), 3)
