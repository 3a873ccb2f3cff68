"""The run's collector policy changes when cycles are collected, never what a run does.

A chaos seed run under :data:`RUN_GC_THRESHOLD` and run again with the
interpreter's default thresholds must agree on every fingerprinted field, on
the trace digest, on the number of events and on every counter.  Seeds 5 and
10 each have a view change and state transfers, and seed 10 abandons cycles
for the collector to find.
"""

from __future__ import annotations

import gc

import pytest

import repro.simnet.simulator as simulator
from repro.chaos import forget_twins, run_seed


@pytest.mark.parametrize("seed", [5, 10])
def test_the_run_threshold_changes_nothing_the_run_reports(seed, monkeypatch, cold_twins):
    default = gc.get_threshold()
    assert default != simulator.RUN_GC_THRESHOLD
    with_policy = run_seed(seed)
    monkeypatch.setattr(simulator, "RUN_GC_THRESHOLD", default)
    forget_twins()  # each run grades against a twin simulated under its own policy
    without_policy = run_seed(seed)

    assert with_policy.ok and without_policy.ok
    assert with_policy.counters["view_changes"] > 0
    assert with_policy.counters["recoveries_completed"] > 0
    assert with_policy.counters == without_policy.counters
    for field in (
        "history_digest",
        "committed",
        "aborted",
        "read_only_recorded",
        "read_only_unverified",
        "events_processed",
        "elapsed_sim_ms",
        "trace_digest",
        "twin",
        "perf_ratio",
    ):
        assert getattr(with_policy, field) == getattr(without_policy, field), field
    assert with_policy.fingerprint() == without_policy.fingerprint()
