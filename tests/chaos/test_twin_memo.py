"""The fault-free twin is simulated once, and only when its verdict can matter.

``run_plan`` grades a faulted run against its twin by two rules, and both
are about *not* simulating: a run whose own pool is too thin to judge gets
no twin at all, and a twin plan already simulated in this process is read
back as its pooled baseline.  Neither may change an answer — the pinned
``perf_ratio`` values here were recorded at the parent commit, where every
twin was simulated every time — and the memo may hold nothing but numbers:
never a deployment, never a stalled twin's truncated timeline, never
anything computed under an injected bug.
"""

from __future__ import annotations

import gc
from dataclasses import replace

import pytest

import repro.chaos.runner as runner
from repro.chaos import plan_from_seed, run_plan, run_seed, shrink_plan
from repro.chaos.runner import twin_baseline

#: A small seed (4 135 events) with enough commits outside its four fault
#: windows to be graded.
CHEAP_JUDGEABLE_SEED = 20


def small_plan(seed):
    """One segment of a small seed: a twin worth a few hundred events."""
    plan = plan_from_seed(seed)
    return replace(plan, segments=plan.segments[:1])


class TestWhatIsSimulated:
    def test_an_unjudgeable_run_gets_no_twin(self, simulations):
        # Fewer than ``min_commits`` commits outside the fault windows: the
        # oracle is silent whatever a twin would show, so none is simulated.
        report = run_seed(1)
        assert [call.twin for call in simulations] == [False]
        assert (report.twin, report.perf_ratio) == ("unjudgeable", None)
        assert twin_baseline.cache_info().misses == 0

    @pytest.mark.parametrize("seed", [2, 6])
    def test_a_judgeable_run_simulates_its_twin_once(
        self, seed, simulations, parent_perf_ratios
    ):
        cold = run_seed(seed)
        assert [call.twin for call in simulations] == [False, True]
        # Only numbers were kept: the twin's deployment is already garbage.
        gc.collect()
        assert simulations[1].system() is None
        assert simulations[0].system() is cold.observation.system
        warm = run_seed(seed)
        assert [call.twin for call in simulations] == [False, True, False]
        assert (cold.twin, cold.twin_reused) == ("graded", False)
        assert (warm.twin, warm.twin_reused) == ("graded", True)
        # Reusing the baseline changes no answer, and both are the parent's.
        pinned = parent_perf_ratios["honest"][str(seed)]
        assert cold.perf_ratio == warm.perf_ratio == pinned
        assert cold.fingerprint() == warm.fingerprint()
        info = twin_baseline.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_shrinking_a_latency_failure_shares_one_twin(self, simulations):
        # Removing a fault leaves the plan-with-faults-stripped unchanged, so
        # the failing run and all its fault-removal candidates have one twin.
        plan = plan_from_seed(29)
        bug = "verify-cache-wedged"
        report = run_plan(plan, bug=bug)
        assert {f.oracle for f in report.failures} == {"phase-latency-anomaly"}
        result = shrink_plan(plan, report, bug=bug, max_runs=len(plan.faults))
        assert result.runs == len(plan.faults) == 3
        assert [call.twin for call in simulations].count(True) == 1
        assert len(simulations) == 1 + 1 + result.runs

    def test_the_event_budget_is_part_of_the_key(self, simulations):
        # A twin that fits one budget can stall under another.
        plan = small_plan(23)
        assert twin_baseline(plan, 4_000_000) == twin_baseline(plan, 3_999_999)
        assert [call.twin for call in simulations] == [True, True]


class TestWhatIsKept:
    def test_a_stalled_twin_is_no_baseline_and_is_never_stored(
        self, simulations, monkeypatch
    ):
        counted = runner._run

        def stalling_twin(plan, bug, *args, **kwargs):
            report = counted(plan, bug, *args, **kwargs)
            if bug is None and not plan.faults:
                report.observation.simulation_stalled = True
            return report

        monkeypatch.setattr(runner, "_run", stalling_twin)
        report = run_seed(CHEAP_JUDGEABLE_SEED)
        assert report.ok
        assert (report.twin, report.perf_ratio) == ("unjudgeable", None)
        assert [call.twin for call in simulations] == [False, True]
        assert twin_baseline.cache_info().currsize == 0

    def test_the_memo_is_bounded(self, cold_twins, monkeypatch):
        monkeypatch.setattr(runner, "TWIN_MEMO_SIZE", 2)
        first, second, third = (small_plan(seed) for seed in (23, 32, 5))
        for plan in (first, second, first, third):  # ``first`` is the fresher
            assert twin_baseline(plan, 4_000_000)
        before = twin_baseline.cache_info()
        assert (before.hits, before.misses, before.currsize) == (1, 3, 2)
        twin_baseline(first, 4_000_000)
        assert twin_baseline.cache_info().hits == 2  # kept: used most recently
        twin_baseline(second, 4_000_000)
        assert twin_baseline.cache_info().misses == 4  # evicted: used least recently
