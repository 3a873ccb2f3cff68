"""Shared pytest fixtures for the TransEdge reproduction test suite."""

from __future__ import annotations

import random

import pytest

from repro.common.config import SystemConfig, small_test_config
from repro.simnet.node import SimEnvironment

#: Lint fixtures, not tests (K601's corpus holds a ``test_*.py`` on purpose).
collect_ignore = ["lint/corpus"]


@pytest.fixture
def rng() -> random.Random:
    """Seeded random generator for deterministic tests."""
    return random.Random(1234)


@pytest.fixture
def small_config() -> SystemConfig:
    """Two partitions, f=1 — the workhorse configuration for unit tests."""
    return small_test_config()


@pytest.fixture
def env(small_config: SystemConfig) -> SimEnvironment:
    """A fresh simulation environment with the small test configuration."""
    return SimEnvironment(small_config)
