"""Shared chaos-test fixtures."""

from __future__ import annotations

import functools
import json
import os
import weakref
from types import SimpleNamespace

import pytest

import repro.chaos.runner as runner
from repro.chaos import forget_twins, run_seed


@pytest.fixture(scope="session")
def untwinned_run():
    """``run_seed(seed, perf_oracle=False)``, computed once per session.

    Runs are deterministic in the seed and the tests sharing one only read
    its report, so re-simulating the same seed per test buys nothing.
    """
    return functools.lru_cache(maxsize=None)(
        lambda seed: run_seed(seed, perf_oracle=False)
    )


@pytest.fixture(scope="session")
def twinned_run():
    """``run_seed(seed)`` — perf oracle armed — computed once per session.

    For tests that only *read* a default report.  A test that compares two
    executions takes one from here and simulates the other itself.
    """
    return functools.lru_cache(maxsize=None)(run_seed)


@pytest.fixture(scope="session")
def parent_perf_ratios():
    """``perf_ratio`` by bug (or ``"honest"``) and seed, as the parent had it.

    Recorded at a53fd0f, the commit that simulated every twin every time:
    skipping or reusing a twin must not move one of them.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "perf-ratio-parent-a53fd0f.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def cold_twins():
    """An empty twin memo, and nothing this test stored left in it after.

    For tests that count simulations, and for tests that patch the honest
    system (whose twins' baselines must not outlive the patch).
    """
    forget_twins()
    yield
    forget_twins()


@pytest.fixture
def simulations(monkeypatch, cold_twins):
    """Every ``_run`` call from here on, in order, starting from a cold memo.

    Each entry says whether it was a fault-free twin (no faults, no bug —
    the tests using this only start runs that have one or the other) and
    holds a weak reference to the deployment it built.
    """
    calls = []
    simulate = runner._run

    def counted(plan, bug, *args, **kwargs):
        report = simulate(plan, bug, *args, **kwargs)
        calls.append(
            SimpleNamespace(
                twin=bug is None and not plan.faults,
                system=weakref.ref(report.observation.system),
            )
        )
        return report

    monkeypatch.setattr(runner, "_run", counted)
    return calls
