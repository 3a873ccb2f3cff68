"""Schedule shrinking: reduce a failing plan to a minimal reproduction.

Greedy delta-debugging over the plan's structure: repeatedly try removing
one fault event or one workload segment (and then halving segment lengths),
keeping every edit after which the failure still reproduces.  "Reproduces"
means the re-run fails at least one oracle that the original run failed —
matching by oracle name keeps the shrinker from walking to a *different*
bug than the one being minimised.

Every candidate edit costs a full (deterministic) re-run, so the total
number of runs is bounded by ``max_runs``; the loop converges because each
accepted edit strictly shrinks the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import ChaosReport, run_plan


@dataclass
class ShrinkResult:
    """The minimised plan plus the bookkeeping of how it was found."""

    plan: ChaosPlan
    report: ChaosReport
    runs: int = 0
    removed_faults: int = 0
    removed_segments: int = 0
    trimmed_transactions: int = 0


def shrink_plan(
    plan: ChaosPlan,
    failing_report: ChaosReport,
    bug=None,
    max_runs: int = 80,
    max_events: int = 4_000_000,
    monitor: bool = True,
    perf_oracle: bool = True,
    log: Optional[Callable[[str], None]] = None,
) -> ShrinkResult:
    """Minimise ``plan`` while ``failing_report``'s failure keeps reproducing.

    ``monitor``/``perf_oracle`` mirror :func:`run_plan`'s flags and must be
    the settings the failing run used: re-running candidates with monitoring
    re-enabled would judge them under a different oracle set than the one
    being minimised.  The fault-free twin is only consulted when the
    phase-latency oracle is actually among the target oracles — every other
    failure shrinks on single runs — and then every fault-removal candidate
    has the *same* twin (the plan with its faults stripped does not change),
    which :func:`run_plan` simulates once; segment edits cost one twin each.
    """
    target_oracles: Set[str] = {failure.oracle for failure in failing_report.failures}
    perf = perf_oracle and "phase-latency-anomaly" in target_oracles
    state = ShrinkResult(plan=plan, report=failing_report)

    def say(message: str) -> None:
        if log is not None:
            log(message)

    def reproduces(candidate: ChaosPlan) -> Optional[ChaosReport]:
        state.runs += 1
        report = run_plan(
            candidate,
            bug=bug,
            max_events=max_events,
            monitor=monitor,
            perf_oracle=perf,
        )
        failed = {failure.oracle for failure in report.failures}
        return report if failed & target_oracles else None

    # Pass 1+: drop whole fault events, then whole segments, until no single
    # removal reproduces any more.
    changed = True
    while changed and state.runs < max_runs:
        changed = False
        for index in reversed(range(len(state.plan.faults))):
            if state.runs >= max_runs:
                break
            candidate = state.plan.without_fault(index)
            report = reproduces(candidate)
            if report is not None:
                say(f"shrink: dropped fault #{index} ({state.plan.faults[index].kind})")
                state.plan, state.report = candidate, report
                state.removed_faults += 1
                changed = True
        for index in reversed(range(len(state.plan.segments))):
            if state.runs >= max_runs or len(state.plan.segments) <= 1:
                break
            candidate = state.plan.without_segment(index)
            report = reproduces(candidate)
            if report is not None:
                say(
                    f"shrink: dropped segment #{index} "
                    f"({state.plan.segments[index].kind})"
                )
                state.plan, state.report = candidate, report
                state.removed_segments += 1
                changed = True

    # Final pass: halve surviving segments' transaction counts while the
    # failure persists.
    for index in range(len(state.plan.segments)):
        while state.runs < max_runs:
            count = state.plan.segments[index].count
            if count <= 2:
                break
            candidate = state.plan.with_segment_count(index, count // 2)
            report = reproduces(candidate)
            if report is None:
                break
            say(f"shrink: segment #{index} count {count} -> {count // 2}")
            state.trimmed_transactions += count - count // 2
            state.plan, state.report = candidate, report

    return state
