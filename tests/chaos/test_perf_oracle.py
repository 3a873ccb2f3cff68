"""Phase-latency oracle + monitoring under chaos.

Three properties anchor the performance-oracle design:

* **Detection** — ``verify-cache-wedged`` keeps every correctness oracle
  green (state is right, merely recomputed) and is caught *only* by the
  phase-latency-anomaly oracle comparing the run against its fault-free
  twin outside fault windows.
* **Neutrality** — the monitor and the twin run are pure observers: the
  fingerprint and trace digest of a monitored run are byte-identical to
  the same plan run with monitoring disabled.
* **Exactness under faults** — the timeline's telescoping-delta invariant
  (sum of windows == final − initial) survives crashes, drops and
  partitions, not just clean runs.
"""

from __future__ import annotations

import pytest

from repro.chaos import plan_from_seed, run_plan, run_seed
from repro.chaos.bugs import get_bug

#: Bounded-fault seed with the strongest wedged-vs-clean separation
#: (~3x mean latency inflation); also the CI demonstration seed.
WEDGED_SEED = 11


class TestWedgedCacheDetection:
    @pytest.mark.parametrize("memo", ["cold", "warm"])
    def test_wedged_cache_fails_only_the_perf_oracle(
        self, memo, cold_twins, parent_perf_ratios
    ):
        # The one case where the twin *is* needed.  Warm, its baseline is the
        # one an honest run of the same seed left behind: the memo is filled
        # outside the bug patch and read inside no patch either, so the
        # wedged run is judged against the honest system both ways.
        if memo == "warm":
            assert run_seed(WEDGED_SEED).twin == "graded"
        report = run_seed(WEDGED_SEED, bug=get_bug("verify-cache-wedged"))
        assert report.twin_reused == (memo == "warm")
        assert not report.ok
        assert {f.oracle for f in report.failures} == {"phase-latency-anomaly"}
        description = report.failures[0].description
        assert "twin" in description
        assert "worst phase" in description
        pinned = parent_perf_ratios["verify-cache-wedged"][str(WEDGED_SEED)]
        assert report.perf_ratio == pinned

    def test_clean_seed_passes_with_perf_oracle_armed(self, twinned_run):
        report = twinned_run(WEDGED_SEED)
        assert report.ok, [f.description for f in report.failures]

    def test_perf_oracle_can_be_disabled(self):
        report = run_seed(
            WEDGED_SEED, bug=get_bug("verify-cache-wedged"), perf_oracle=False
        )
        assert report.ok  # correctness oracles alone cannot see the wedge


class TestMonitorNeutrality:
    @pytest.mark.parametrize("seed", [2, 21])
    def test_fingerprint_and_digest_identical_monitor_on_off(self, seed, untwinned_run):
        on = untwinned_run(seed)
        off = run_plan(plan_from_seed(seed), monitor=False, perf_oracle=False)
        assert on.fingerprint() == off.fingerprint()
        assert on.trace_digest == off.trace_digest
        assert on.counters == off.counters
        assert on.monitor is not None and off.monitor is None

    def test_twin_does_not_perturb_the_graded_run(self, twinned_run, untwinned_run):
        # perf_oracle=True grades against a second (twin) simulation; the
        # report of the primary run must not change because of it.
        with_twin, without = twinned_run(2), untwinned_run(2)
        assert (with_twin.twin, without.twin) == ("graded", "not-needed")
        assert with_twin.fingerprint() == without.fingerprint()


class TestTimelineUnderChaos:
    @pytest.mark.parametrize("seed", [2, 6, 21])
    def test_window_deltas_reconcile_exactly(self, seed, untwinned_run):
        report = untwinned_run(seed)
        timeline = report.monitor.timeline
        totals = timeline.totals()
        final = report.observation.system.monitor_snapshot()
        initial = timeline.initial
        for section in final:
            expected = {
                key: final[section][key] - initial[section].get(key, 0)
                for key in final[section]
                if final[section][key] != initial[section].get(key, 0)
            }
            assert totals[section] == expected, section

    def test_fault_windows_recorded_per_fault_event(self, untwinned_run):
        report = untwinned_run(21)
        plan = plan_from_seed(21)
        assert len(report.fault_windows) == len(plan.faults)
        for window in report.fault_windows:
            start, end = window
            assert end is None or end > start


class TestHealthUnderChaos:
    def test_crash_restart_failover_transitions_are_pinned(self, untwinned_run):
        # Seed 21 crashes two replicas (restart + recovery) and rotates
        # leaders late in the run; the tracker must see the whole story.
        report = untwinned_run(21)
        transitions = report.health["transitions"]
        crashed = [t["node"] for t in transitions if t["to"] == "crashed"]
        assert len(crashed) == 2
        for node in crashed:
            trail = [t["to"] for t in transitions if t["node"] == node]
            recovering = trail.index("recovering")
            assert trail.index("crashed") < recovering < trail.index("healthy")
        # The replicas that missed decisions while crashed resolve the gap
        # with catch-up state transfer instead of suspecting the (healthy)
        # leader: the monitor records the late recovering->healthy dip and
        # no replica ever reaches "suspected".
        assert report.counters["catchup_recoveries"] > 0
        assert report.counters["leader_suspicions"] == 0
        assert any(t["reason"] == "recovery-begin" for t in transitions)
        assert not any(t["to"] == "suspected" for t in transitions)
        assert any(t["reason"] == "quiet" for t in transitions)

    def test_health_reaches_the_cache_snapshot(self, untwinned_run):
        report = untwinned_run(21)
        snapshot = report.observation.system.cache_snapshot()
        assert snapshot["health"] == report.monitor.health.snapshot()

    def test_fault_free_run_has_no_transitions(self):
        from dataclasses import replace

        report = run_plan(replace(plan_from_seed(2), faults=()), perf_oracle=False)
        assert report.health["transitions"] == []
