"""Shared chaos-test fixtures."""

from __future__ import annotations

import functools

import pytest

from repro.chaos import run_seed


@pytest.fixture(scope="session")
def untwinned_run():
    """``run_seed(seed, perf_oracle=False)``, computed once per session.

    Runs are deterministic in the seed and the tests sharing one only read
    its report, so re-simulating the same seed per test buys nothing.
    """
    return functools.lru_cache(maxsize=None)(
        lambda seed: run_seed(seed, perf_oracle=False)
    )
