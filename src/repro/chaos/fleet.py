"""Parallel chaos fleet: worker-pool execution and coverage-guided search.

Two layers on top of the serial runner:

**Parallel execution.**  :func:`run_fleet` fans a list of plans across a
``multiprocessing`` pool.  Each worker runs one plan end-to-end (including
shrinking and artifact writing on failure, per :class:`FleetSettings`) and
returns a *reduced*, picklable :class:`FleetResult` — the full
:class:`~repro.chaos.runner.ChaosReport` holds live simulator handles and
never crosses the process boundary.  Results are merged by plan index, so
the output is byte-identical for any worker count and any completion
order: parallelism changes wall-clock only, never fingerprints or trace
digests.  (Every run is deterministic in its plan and runs in its own
process with its own RNGs; the one thing a worker keeps between plans is
the runner's fault-free twin memo, which saves simulations, not answers.)

**Coverage-guided search.**  :func:`coverage_session` grows a persisted
corpus (:mod:`repro.chaos.corpus`) AFL-style: corpus entries are weighted
by the global rarity of their coverage signatures
(:mod:`repro.chaos.coverage`), bases are drawn by weight, and mutants are
derived by legality-preserving ``ConfigPoint``/fault-plan mutations.  All
draws come from one session RNG and every batch of mutants is generated
*single-threaded before the batch runs*, so a session is a deterministic
function of ``(corpus state, session seed)`` — worker count cannot change
which mutants are tried.  Mutants whose runs exhibit never-seen features
are admitted; a mutant that fails an oracle is a *finding* (shrunk and
written as an artifact like any failing seed) and is never admitted.

**Corpus replay.**  :func:`replay_corpus` re-runs every entry and diffs
its fingerprint and trace digest against the recorded ones — each entry is
a standing determinism oracle, which is what the per-PR smoke job checks
before the uniform sweep.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.corpus import Corpus, CorpusEntry, plan_id
from repro.chaos.coverage import (
    CoverageMap,
    coverage_signature,
    mutate_plan,
    signature_weight,
)
from repro.chaos.plan import ChaosPlan, plan_from_seed
from repro.chaos.runner import run_plan

#: Mutant seed namespace: far above any uniform sweep seed, so artifact
#: names (``chaos-repro-<seed>.json``) never collide with seed runs.
MUTANT_SEED_BASE = 1_000_000

#: Coverage-session batch width: how many mutants are drawn (and their base
#: entries weighted) before any of them runs.  Fixed — NOT the worker count —
#: because admissions update the weights between batches: tying the batch
#: width to the pool size would make the mutant sequence depend on how many
#: workers happened to be available.
SESSION_BATCH = 8


@dataclass(frozen=True)
class FleetSettings:
    """Per-run knobs, identical for every worker (picklable)."""

    bug_name: Optional[str] = None
    max_events: int = 4_000_000
    monitor: bool = True
    perf_oracle: bool = True
    shrink: bool = True
    max_shrink_runs: int = 80
    #: ``None`` disables artifact writing (corpus replay never writes).
    artifact_dir: Optional[str] = "."


@dataclass
class FleetResult:
    """The reduced, picklable outcome of one fleet run."""

    index: int
    seed: int
    plan: dict
    ok: bool
    fingerprint: str
    trace_digest: str
    failures: List[Tuple[str, str]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    health: Dict[str, object] = field(default_factory=dict)
    perf_ratio: Optional[float] = None
    #: As on the report; ``twin_reused`` depends on which worker ran what.
    twin: str = "not-needed"
    twin_reused: bool = False
    signature: Tuple[str, ...] = ()
    summary: str = ""
    events_processed: int = 0
    elapsed_sim_ms: float = 0.0
    shrink_runs: int = 0
    artifact: Optional[str] = None
    shrunk_faults: Optional[int] = None
    shrunk_segments: Optional[int] = None


def _execute(task: Tuple[int, dict, FleetSettings]) -> FleetResult:
    """Run one plan in this process and reduce the report (pool target).

    Imports the CLI's artifact writer lazily: the CLI imports this module,
    so a top-level import would be circular.
    """
    index, plan_dict, settings = task
    plan = ChaosPlan.from_dict(plan_dict)
    bug = settings.bug_name
    report = run_plan(
        plan,
        bug=bug,
        max_events=settings.max_events,
        monitor=settings.monitor,
        perf_oracle=settings.perf_oracle,
    )
    result = FleetResult(
        index=index,
        seed=plan.seed,
        plan=plan_dict,
        ok=report.ok,
        fingerprint=report.fingerprint(),
        trace_digest=report.trace_digest,
        failures=[(f.oracle, f.description) for f in report.failures],
        counters=dict(report.counters),
        health=dict(report.health),
        perf_ratio=report.perf_ratio,
        twin=report.twin,
        twin_reused=report.twin_reused,
        signature=coverage_signature(
            report.counters,
            report.health,
            failure_oracles=[f.oracle for f in report.failures],
            perf_ratio=report.perf_ratio,
        ),
        summary=report.summary_line(),
        events_processed=report.events_processed,
        elapsed_sim_ms=report.elapsed_sim_ms,
    )
    if report.ok:
        return result
    shrunk_plan, shrunk_report = plan, report
    if settings.shrink:
        from repro.chaos.shrink import shrink_plan

        shrunk = shrink_plan(
            plan,
            report,
            bug=bug,
            max_runs=settings.max_shrink_runs,
            max_events=settings.max_events,
            monitor=settings.monitor,
            perf_oracle=settings.perf_oracle,
        )
        shrunk_plan, shrunk_report = shrunk.plan, shrunk.report
        result.shrink_runs = shrunk.runs
        result.shrunk_faults = len(shrunk_plan.faults)
        result.shrunk_segments = len(shrunk_plan.segments)
    if settings.artifact_dir is not None:
        from repro.chaos.cli import write_artifact

        result.artifact = write_artifact(
            settings.artifact_dir,
            shrunk_plan,
            shrunk_report,
            settings.bug_name,
            result.shrink_runs,
        )
    return result


def run_fleet(
    plans: Sequence[ChaosPlan],
    settings: FleetSettings = FleetSettings(),
    workers: int = 1,
) -> List[FleetResult]:
    """Run every plan, across ``workers`` processes, merged by plan index.

    The merge sorts on the submission index, so the returned list — and
    therefore every fingerprint/digest it carries — is identical whether
    the plans ran serially, on 2 workers or on 16.
    """
    tasks = [
        (index, plan.to_dict(), settings) for index, plan in enumerate(plans)
    ]
    if workers <= 1 or len(tasks) <= 1:
        results = [_execute(task) for task in tasks]
    else:
        with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
            results = list(pool.imap_unordered(_execute, tasks, chunksize=1))
    return sorted(results, key=lambda result: result.index)


def run_seed_fleet(
    seeds: Sequence[int],
    settings: FleetSettings = FleetSettings(),
    workers: int = 1,
) -> List[FleetResult]:
    """The uniform sweep, fleet-style: ``plan_from_seed`` for every seed."""
    return run_fleet([plan_from_seed(seed) for seed in seeds], settings, workers)


def seed_corpus(corpus: Corpus, results: Sequence[FleetResult]) -> List[str]:
    """Admit every passing sweep result as a mutation base; returns new ids."""
    admitted = []
    for result in results:
        if not result.ok:
            continue
        plan = ChaosPlan.from_dict(result.plan)
        entry = CorpusEntry(
            entry_id=plan_id(plan),
            plan=plan,
            signature=tuple(result.signature),
            fingerprint=result.fingerprint,
            trace_digest=result.trace_digest,
            parent=f"seed:{result.seed}",
        )
        if corpus.add(entry):
            admitted.append(entry.entry_id)
    return admitted


@dataclass
class SessionOutcome:
    """What one coverage session did to the corpus."""

    session_seed: int
    runs: int
    admitted: List[str] = field(default_factory=list)
    novel_features: List[str] = field(default_factory=list)
    failing: List[FleetResult] = field(default_factory=list)
    results: List[FleetResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "session_seed": self.session_seed,
            "runs": self.runs,
            "admitted": list(self.admitted),
            "novel_features": sorted(set(self.novel_features)),
            "failing_seeds": [result.seed for result in self.failing],
        }


def coverage_session(
    corpus: Corpus,
    session_seed: int,
    runs: int,
    settings: FleetSettings = FleetSettings(),
    workers: int = 1,
    log: Optional[Callable[[str], None]] = None,
) -> SessionOutcome:
    """Grow ``corpus`` by ``runs`` coverage-guided mutant runs.

    Deterministic in ``(corpus state, session_seed)``: every base draw and
    mutation comes from one ``random.Random(session_seed)``, and each
    fixed-width batch (:data:`SESSION_BATCH`) of mutants is fully generated
    before it runs, so worker count and completion order never reach the
    RNG — ``workers`` changes wall-clock only.
    """
    if not corpus.entries:
        raise ValueError("coverage session needs a non-empty corpus to mutate")
    rng = random.Random(session_seed)
    coverage = CoverageMap.from_signatures(
        entry.signature for entry in corpus.ordered()
    )
    outcome = SessionOutcome(session_seed=session_seed, runs=runs)
    batch_size = SESSION_BATCH
    draw = 0
    while draw < runs:
        entries = corpus.ordered()
        weights = [
            signature_weight(entry.signature, coverage) for entry in entries
        ]
        batch: List[Tuple[ChaosPlan, str]] = []
        for _ in range(min(batch_size, runs - draw)):
            base = rng.choices(entries, weights=weights)[0]
            mutant_seed = MUTANT_SEED_BASE + session_seed * 10_000 + draw
            batch.append((mutate_plan(base.plan, rng, mutant_seed), base.entry_id))
            draw += 1
        results = run_fleet([plan for plan, _ in batch], settings, workers)
        for result, (plan, parent) in zip(results, batch):
            outcome.results.append(result)
            fresh = coverage.observe(result.signature)
            outcome.novel_features.extend(fresh)
            if not result.ok:
                outcome.failing.append(result)
                if log:
                    log(f"  mutant {result.seed}: FAILED ({result.summary})")
                continue
            if fresh:
                entry = CorpusEntry(
                    entry_id=plan_id(plan),
                    plan=plan,
                    signature=tuple(result.signature),
                    fingerprint=result.fingerprint,
                    trace_digest=result.trace_digest,
                    parent=parent,
                )
                if corpus.add(entry):
                    outcome.admitted.append(entry.entry_id)
                    if log:
                        log(
                            f"  mutant {result.seed}: admitted {entry.entry_id} "
                            f"(new: {', '.join(fresh)})"
                        )
    return outcome


@dataclass
class ReplayDrift:
    """A corpus entry whose re-run no longer matches its recorded digests."""

    entry_id: str
    field_name: str
    recorded: str
    observed: str


def replay_corpus(
    corpus: Corpus,
    settings: FleetSettings = FleetSettings(),
    workers: int = 1,
) -> Tuple[List[FleetResult], List[ReplayDrift]]:
    """Re-run every entry; any fingerprint/digest drift is a determinism bug."""
    entries = corpus.ordered()
    replay_settings = replace(settings, shrink=False, artifact_dir=None)
    results = run_fleet(
        [entry.plan for entry in entries], replay_settings, workers
    )
    drift: List[ReplayDrift] = []
    for entry, result in zip(entries, results):
        if result.fingerprint != entry.fingerprint:
            drift.append(
                ReplayDrift(
                    entry.entry_id, "fingerprint", entry.fingerprint, result.fingerprint
                )
            )
        if result.trace_digest != entry.trace_digest:
            drift.append(
                ReplayDrift(
                    entry.entry_id, "trace_digest", entry.trace_digest, result.trace_digest
                )
            )
    return results, drift
