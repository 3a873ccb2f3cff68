"""Monitoring layer: timeline exactness, neutrality, health, SLOs.

The monitor's two load-bearing promises are tested here:

* **Exactness** — the timeline is a *lossless decomposition*: summing every
  window's counter deltas (plus the evicted-window accumulator) reproduces
  the final cumulative snapshot minus the initial one, key by key.  Lazy
  window closing and ring eviction must never lose or double-count.
* **Neutrality** — arming the monitor changes no simulated behaviour: the
  trace digest and counters of a monitored run are byte-identical to the
  unmonitored run of the same seed.

Plus the HealthTracker state machine (crash/restart/failover transitions,
rank ordering, quiet-decay) and the declarative SLO grading.
"""

from __future__ import annotations

import pytest

from repro.common.config import MonitorConfig
from repro.common.errors import ConfigurationError
from repro.obs.cli import monitored_workload, traced_workload
from repro.obs.monitor import SECTIONS, HealthTracker, MetricsTimeline, WindowSample
from repro.obs.recorder import ObsEvent
from repro.obs.slo import SloSpec, default_slos, evaluate_slos, render_slo_table


def _event(kind, node="p0-r0", time_ms=100.0, **detail):
    return ObsEvent(0, time_ms, node, kind, "info", detail)


class TestTimelineExactness:
    """Sum of window deltas == final snapshot − initial snapshot, exactly."""

    @pytest.mark.parametrize("seed", [3, 7])
    def test_workload_totals_reconcile(self, seed):
        system = monitored_workload(40, seed)
        monitor = system.monitor
        totals = monitor.timeline.totals()
        final = system.monitor_snapshot()
        initial = monitor.timeline.initial
        assert set(final) == set(SECTIONS)
        for section in final:
            expected = {
                key: final[section][key] - initial[section].get(key, 0)
                for key in final[section]
                if final[section][key] != initial[section].get(key, 0)
            }
            assert totals[section] == expected, section

    def test_windows_tile_the_timeline(self):
        system = monitored_workload(30, 7)
        samples = system.monitor.timeline.samples()
        assert samples, "workload must close at least one window"
        window_ms = system.config.monitor.window_ms
        for sample in samples:
            # Sparse samples may span idle windows but always cover a whole
            # number of them, aligned to the grid.
            assert sample.start_ms == sample.index * window_ms
            spanned = (sample.end_ms - sample.start_ms) / window_ms
            assert spanned >= 1 and spanned == int(spanned)
        for earlier, later in zip(samples, samples[1:]):
            assert earlier.end_ms <= later.start_ms  # disjoint, ordered

    def test_eviction_keeps_totals_exact(self):
        state = {"n": 0}

        def snapshot():
            return {"counters": {"ticks": state["n"]}, "transport": {}, "node_handled": {}}

        config = MonitorConfig(enabled=True, window_ms=10.0)
        timeline = MetricsTimeline(config, snapshot)
        # 300 windows of three ticks each through the 256-window ring: the
        # 257th closed window evicts the first, and 44 are folded in the end.
        for step in range(1, 301):
            state["n"] = step * 3
            timeline.note_time(step * 10.0 + 0.5)
            assert timeline.evicted["windows"] == max(0, step - 256)
        timeline.flush(10_000.0)
        assert timeline.windows_closed == 300
        assert len(timeline.samples()) == 256
        assert timeline.samples()[0].index == 44
        assert timeline.evicted["windows"] == 44
        assert timeline.evicted["counters"] == {"ticks": 44 * 3}
        assert timeline.totals()["counters"] == {"ticks": state["n"]}

    def test_latency_cap_counts_drops(self):
        config = MonitorConfig(enabled=True, window_ms=10.0)
        timeline = MetricsTimeline(config, lambda: {name: {} for name in SECTIONS})
        # 520 commits in one window: the 513th is the first sample not kept.
        for i in range(520):
            timeline.record_root(5.0 + i * 0.001, 1.0 + i, True, {"queue": 1.0})
        timeline.flush(20.0)
        (sample,) = timeline.samples()
        assert sample.latencies == [1.0 + i for i in range(512)]
        assert sample.samples_dropped == 8
        assert sample.commits == 520


class TestNeutrality:
    """The monitor observes; it must never perturb the simulation."""

    @pytest.mark.parametrize("seed", [3, 7])
    def test_trace_digest_identical_monitor_on_off(self, seed):
        plain = traced_workload(25, seed)
        monitored = monitored_workload(25, seed)
        assert plain.tracer.digest() == monitored.env.obs.tracer.digest()
        assert plain.tracer.spans_recorded == monitored.env.obs.tracer.spans_recorded


class TestHealthTracker:
    def _tracker(self, leader_of=None):
        config = MonitorConfig(enabled=True, window_ms=50.0)
        return HealthTracker(config, leader_of=leader_of)

    def test_crash_restart_recovery_cycle(self):
        tracker = self._tracker()
        tracker.on_event(_event("replica-crash", time_ms=100.0))
        assert tracker.state("p0-r0") == "crashed"
        tracker.on_event(_event("replica-restart", time_ms=200.0))
        assert tracker.state("p0-r0") == "recovering"
        tracker.on_event(_event("recovery-complete", time_ms=300.0))
        assert tracker.state("p0-r0") == "healthy"
        trail = [(t["from"], t["to"]) for t in tracker.transitions]
        assert trail == [
            ("healthy", "crashed"),
            ("crashed", "recovering"),
            ("recovering", "healthy"),
        ]

    def test_failover_suspects_the_leader_at_event_time(self):
        tracker = self._tracker(leader_of=lambda partition: f"p{partition}-r0")
        tracker.on_event(_event("leader-suspected", node="p1-r2", partition=1))
        assert tracker.state("p1-r0") == "suspected"
        assert tracker.state("p1-r2") == "healthy"

    def test_weaker_signal_never_downgrades(self):
        tracker = self._tracker()
        tracker.on_event(_event("replica-crash", time_ms=100.0))
        tracker.on_event(
            _event("message-retransmit", node="src", time_ms=150.0, dst="p0-r0")
        )
        assert tracker.state("p0-r0") == "crashed"

    def test_degraded_decays_after_quiet_windows(self):
        tracker = self._tracker()  # three quiet 50 ms windows: 150 ms
        tracker.on_event(
            _event("message-retransmit", node="src", time_ms=100.0, dst="p0-r1")
        )
        assert tracker.state("p0-r1") == "degraded"
        tracker.decay(200.0)
        assert tracker.state("p0-r1") == "degraded"
        tracker.decay(250.0)
        assert tracker.state("p0-r1") == "healthy"

    def test_crashed_does_not_decay(self):
        tracker = self._tracker()
        tracker.on_event(_event("replica-crash", time_ms=100.0))
        tracker.decay(10_000.0)
        assert tracker.state("p0-r0") == "crashed"

    def test_transitions_log_is_bounded(self):
        tracker = self._tracker()
        for step in range(1030):
            node = f"n{step}"
            tracker.on_event(
                _event("message-retransmit", node="src", time_ms=float(step), dst=node)
            )
            assert len(tracker.transitions) == min(step + 1, 1024)
        # The 1 025th transition pushed the first out; the newest 1 024 stay.
        assert tracker.transitions[0]["node"] == "n6"
        assert tracker.transitions[-1]["node"] == "n1029"


class TestSlos:
    def _window(self, index, latencies=(), commits=0, aborts=0, retransmits=0):
        sample = WindowSample(
            index=index,
            start_ms=index * 50.0,
            end_ms=(index + 1) * 50.0,
            closed_at_ms=(index + 1) * 50.0,
        )
        sample.latencies.extend(latencies)
        sample.commits = commits
        sample.aborts = aborts
        if retransmits:
            sample.transport["messages_retransmitted"] = retransmits
        return sample

    def test_violations_and_burn_rate(self):
        spec = SloSpec("lat", "commit_p99_ms", "<=", 10.0, budget_fraction=0.25)
        windows = [
            self._window(0, latencies=[5.0], commits=1),
            self._window(1, latencies=[50.0], commits=1),
            self._window(2, latencies=[8.0], commits=1),
            self._window(3, latencies=[9.0], commits=1),
        ]
        (result,) = evaluate_slos(windows, [spec])
        assert result.windows_evaluated == 4
        assert result.violations == 1
        assert result.burn_rate == pytest.approx(1.0)
        assert result.ok
        assert result.worst_value == pytest.approx(50.0)

    def test_undefined_windows_are_skipped_not_violated(self):
        spec = SloSpec("aborts", "abort_rate", "<=", 0.5)
        windows = [self._window(0), self._window(1, commits=1, aborts=3)]
        (result,) = evaluate_slos(windows, [spec])
        assert result.windows_evaluated == 1
        assert result.violations == 1

    def test_floor_objective_uses_ge(self):
        spec = SloSpec("fresh", "edge_refresh_rounds", ">=", 1.0, budget_fraction=0.0)
        window = self._window(0)
        window.counters["edge_refresh_rounds"] = 2
        (result,) = evaluate_slos([window], [spec])
        assert result.violations == 0 and result.ok

    def test_validate_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            SloSpec("x", "commit_p99_ms", "<", 1.0).validate()
        with pytest.raises(ConfigurationError):
            SloSpec("x", "no_such_metric", "<=", 1.0).validate()
        with pytest.raises(ConfigurationError):
            SloSpec("x", "abort_rate", "<=", 1.0, budget_fraction=1.5).validate()

    def test_default_slos_pass_on_a_healthy_run(self):
        system = monitored_workload(40, 7)
        results = evaluate_slos(system.monitor.timeline.samples(), default_slos())
        assert all(result.ok for result in results)
        table = render_slo_table(results)
        assert "commit-p99" in table and "yes" in table
