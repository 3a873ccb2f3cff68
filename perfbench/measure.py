"""Run one workload: timed repetitions (untraced) or one traced repetition.

Every repetition builds a fresh deployment, runs the workload's inputs to
idle and checks the outputs.  Simulated results depend on the seed alone, so
they must be identical in every repetition and in the traced pass; a
difference is reported as a correctness problem, never averaged away.
"""

from __future__ import annotations

import gc
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import metrics, reference
from perfbench.trace import Recorder
from perfbench.workloads import Tally

#: Timed repetitions never drop below this, whatever ``--seconds`` says.
MIN_REPETITIONS = 3


@dataclass
class Outcome:
    """What one invocation reports (``metrics`` feeds the last-line JSON)."""

    workload: str
    seed: int
    scale: float
    traced: bool
    metrics: Dict[str, Dict[str, object]]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    repetitions: int = 0
    recorder: Optional[Recorder] = None

    @property
    def correct(self) -> bool:
        return not self.problems


def _signature(tally: Tally) -> Tuple:
    """Everything simulated about a repetition, for bit-identity checks."""
    simulated = {name: entry["value"] for name, entry in metrics.simulated_metrics(tally).items()}
    return (
        tally.attempted, tally.committed, tally.aborted, tally.reads_verified,
        tally.reads_unverified, tally.events, tally.fingerprints, sorted(simulated.items()),
    )


def _repetition(workload, inputs) -> Tuple[float, float, Tally, List[str], object]:
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(inputs)
    ready = time.perf_counter()
    tally = workload.execute(state, inputs)
    done = time.perf_counter()
    problems = workload.check(state, inputs, tally)
    return ready - start, done - ready, tally, problems, state


def _failed(tally: Tally, problems: List[str]) -> int:
    # An operation fails when its outcome is wrong.  An OCC abort, or a read
    # a client gives up on while faults are injected, is a correct answer of
    # the protocol: it lowers ``success_share`` instead.  Any failed check
    # voids the whole run.
    return tally.attempted if problems else 0


def measure(workload, seed: int, seconds: float, scale: float = 1.0) -> Outcome:
    """Untraced pass: one discarded warm-up, then timed repetitions for ``seconds``."""
    inputs = workload.generate(seed, scale)
    _, _, warm_up, problems, state = _repetition(workload, inputs)  # discarded timings
    notes = workload.notes(state)
    del state
    setups: List[float] = []
    runs: List[float] = []
    slices: List[List[float]] = []
    kernel_s: List[float] = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_REPETITIONS or time.perf_counter() < deadline:
        kernel_s.extend(reference.sample())
        setup_s, run_s, tally, rep_problems, state = _repetition(workload, inputs)
        kernel_s.extend(reference.sample())
        del state
        setups.append(setup_s)
        runs.append(run_s)
        slices.append(tally.slice_s)
        problems.extend(p for p in rep_problems if p not in problems)
        if _signature(tally) != _signature(warm_up):
            problems.append(f"repetition {len(runs)} differs from the warm-up in simulated results")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = metrics.wall_metrics(warm_up, setups, runs, slices, kernel_s, peak_rss_mb)
    result.update(metrics.simulated_metrics(warm_up))
    return Outcome(
        workload=workload.name, seed=seed, scale=scale, traced=False, metrics=result,
        attempted=warm_up.attempted, failed=_failed(warm_up, problems),
        problems=problems, notes=notes, repetitions=len(runs),
    )


def trace(workload, seed: int, scale: float = 1.0) -> Outcome:
    """Traced pass: an untraced reference repetition, then one under the wrappers."""
    started = time.perf_counter()
    inputs = workload.generate(seed, scale)
    generate_s = time.perf_counter() - started
    setup_s, run_s, untraced, problems, state = _repetition(workload, inputs)
    del state
    gc.collect()
    with Recorder() as recorder:
        state = workload.setup(inputs)
        tally = workload.execute(state, inputs)
    traced_wall_s = recorder.root_ns / 1e9
    traced_problems = workload.check(state, inputs, tally)
    problems.extend(p for p in traced_problems if p not in problems)
    if _signature(tally) != _signature(untraced):
        problems.append("tracing is not neutral: simulated results differ from the untraced repetition")
    ledger = metrics.Ledger(
        rec=recorder, tally=tally, generate_s=generate_s,
        untraced_wall_s=setup_s + run_s, traced_wall_s=traced_wall_s,
    )
    problems.extend(metrics.fidelity_problems(ledger))
    return Outcome(
        workload=workload.name, seed=seed, scale=scale, traced=True,
        metrics=metrics.layer_metrics(ledger), attempted=tally.attempted,
        failed=_failed(tally, problems), problems=problems, notes=workload.notes(state),
        repetitions=1, recorder=recorder,
    )
