"""The phase-latency oracle's "judgeable first" rule, as a property.

The chaos runner simulates no fault-free twin for a run whose own pool is
too thin (``repro.chaos.runner.run_plan``).  That is only sound if the
oracle's verdict on such a run is the same *whatever* baseline a twin would
have produced — which is a statement about the oracle alone, checked here
over generated timelines and baselines without simulating anything.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.common.config import MonitorConfig
from repro.obs.monitor import WindowSample
from repro.verification.history import ExecutionHistory
from repro.verification.oracles import PhaseLatencyAnomalyOracle, RunObservation

WINDOW_MS = 50.0
MIN_COMMITS = 8

latency = st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False)
phases = st.dictionaries(st.sampled_from(["queue", "verify", "consensus", "2pc"]), latency)


@st.composite
def windows(draw, max_commits):
    """A timeline of consecutive windows holding at most ``max_commits`` in all."""
    samples = []
    room = max_commits
    for index in range(draw(st.integers(min_value=0, max_value=6))):
        latencies = draw(st.lists(latency, max_size=min(room, 12)))
        room -= len(latencies)
        start = index * WINDOW_MS
        samples.append(
            WindowSample(
                index=index,
                start_ms=start,
                end_ms=start + WINDOW_MS,
                closed_at_ms=start + WINDOW_MS,
                commits=len(latencies),
                latencies=latencies,
                phase_ms=draw(phases) if latencies else {},
                earliest_root_start_ms=(
                    start - draw(st.floats(min_value=0.0, max_value=400.0))
                    if latencies
                    else None
                ),
            )
        )
    return samples


baselines = st.none() | st.fixed_dictionaries(
    {
        "commits": st.integers(min_value=0, max_value=500),
        "mean": latency,
        "p95": latency,
        "phase_per_commit": phases,
    }
)

fault_windows = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=300.0),
        st.none() | st.floats(min_value=300.0, max_value=600.0),
    ),
    max_size=3,
)

#: Runs with under ``MIN_COMMITS`` commits outside their fault windows, two
#: ways: too few commits anywhere, or any number under a fault that starts
#: with the run and never lifts (a byzantine proxy, an unrestarted crash).
thin_runs = st.tuples(windows(max_commits=MIN_COMMITS - 1), fault_windows) | st.tuples(
    windows(max_commits=60), fault_windows.map(lambda faults: faults + [(0.0, None)])
)


def observe(samples, faults, baseline) -> RunObservation:
    monitor = SimpleNamespace(
        config=MonitorConfig(enabled=True, window_ms=WINDOW_MS),
        timeline=SimpleNamespace(samples=lambda: samples),
    )
    return RunObservation(
        system=None,
        history=ExecutionHistory({}),
        monitor=monitor,
        twin_baseline=baseline,
        fault_windows=tuple(faults),
    )


@settings(max_examples=100, deadline=None)
@given(run=thin_runs, baseline=baselines)
def test_a_thin_run_is_silent_whatever_the_baseline(run, baseline):
    samples, faults = run
    oracle = PhaseLatencyAnomalyOracle(min_commits=MIN_COMMITS)
    observation = observe(samples, faults, baseline)
    assert oracle.measure(observation) is None
    assert oracle.check(observation) == []
    assert oracle.run_pool(observation) is None  # what lets a driver skip the twin


def test_the_baseline_decides_a_judgeable_run():
    # The other direction, so the property above cannot pass vacuously: with
    # enough commits the same observation is silent, clean or failing
    # depending on nothing but the baseline.
    samples = [
        WindowSample(
            index=0, start_ms=0.0, end_ms=WINDOW_MS, closed_at_ms=WINDOW_MS,
            commits=10, latencies=[40.0] * 10, phase_ms={"verify": 300.0},
            earliest_root_start_ms=0.0,
        )
    ]
    oracle = PhaseLatencyAnomalyOracle(min_commits=MIN_COMMITS)
    slow = {"commits": 10, "mean": 40.0, "p95": 40.0, "phase_per_commit": {"verify": 30.0}}
    fast = {"commits": 10, "mean": 10.0, "p95": 10.0, "phase_per_commit": {"verify": 5.0}}
    thin = dict(fast, commits=MIN_COMMITS - 1)

    assert oracle.measure(observe(samples, [], slow)) == 1.0
    assert oracle.check(observe(samples, [], slow)) == []
    assert oracle.measure(observe(samples, [], fast)) == 4.0
    (failure,) = oracle.check(observe(samples, [], fast))
    assert "worst phase: verify 30.00ms/commit vs twin 5.00ms/commit" in failure.description
    for silent in (None, thin):
        assert oracle.measure(observe(samples, [], silent)) is None
        assert oracle.check(observe(samples, [], silent)) == []
    # A fault window over the only window leaves nothing to judge.
    assert oracle.run_pool(observe(samples, [(10.0, None)], fast)) is None
