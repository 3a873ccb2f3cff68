"""Command-line interface: ``python -m repro.chaos``.

Fuzzing loop, bug self-tests and artifact replay::

    python -m repro.chaos --seeds 25                   # seeds 0..24, in-process
    python -m repro.chaos --seeds 25 --workers 4       # same sweep, pooled
    python -m repro.chaos --seed 7                     # one seed
    python -m repro.chaos --seeds 10 --inject-bug no-dependency-repair
    python -m repro.chaos --replay chaos-repro-7.json  # re-run an artifact
    python -m repro.chaos --list-bugs

Corpus modes (:mod:`repro.chaos.fleet`)::

    python -m repro.chaos --corpus-replay --workers 4      # determinism gate
    python -m repro.chaos --coverage-runs 16 --workers 4   # grow the corpus

``--corpus-replay`` re-runs every ``.chaos-corpus/`` entry and fails on any
fingerprint/trace-digest drift; ``--coverage-runs N`` runs a coverage-guided
mutation session (seeding the corpus from the uniform sweep first when it is
empty) and records the session — plus an optional ``--lint-metadata`` JSON
summary from ``python -m repro.lint --json`` — in the corpus metadata.

Exit code 0 when every requested run passed all oracles, 1 otherwise.  On a
failure the schedule is shrunk (disable with ``--no-shrink``) and written as
``chaos-repro-<seed>.json`` next to ``--artifact-dir``; the artifact records
the minimal plan, the oracle failures, the injected bug (if any), the exact
replay command, and the run's black box — the flight recorder's last events
plus the failing transactions' full causal traces (:mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from typing import List, Optional

from repro.chaos.bugs import BUGS, get_bug
from repro.chaos.corpus import Corpus
from repro.chaos.fleet import (
    FleetResult,
    FleetSettings,
    coverage_session,
    replay_corpus,
    run_seed_fleet,
    seed_corpus,
)
from repro.chaos.plan import ChaosPlan
from repro.chaos.runner import ChaosReport, run_plan

ARTIFACT_VERSION = 3  # v3: health summary + fault windows (v2 added black box)


def artifact_path(directory: str, seed: int) -> str:
    return os.path.join(directory, f"chaos-repro-{seed}.json")


def write_artifact(
    directory: str,
    plan: ChaosPlan,
    report: ChaosReport,
    bug_name: Optional[str],
    shrink_runs: int,
) -> str:
    os.makedirs(directory, exist_ok=True)
    path = artifact_path(directory, plan.seed)
    filename = os.path.basename(path)
    document = {
        "version": ARTIFACT_VERSION,
        "seed": plan.seed,
        "bug": bug_name,
        "failures": [
            {"oracle": failure.oracle, "description": failure.description}
            for failure in report.failures
        ],
        "fingerprint": report.fingerprint(),
        "shrink_runs": shrink_runs,
        "fault_events": len(plan.faults),
        "replay": f"python -m repro.chaos --replay {filename}",
        "plan": plan.to_dict(),
        # Black box (repro.obs): the flight recorder's tail and the failing
        # transactions' full causal traces, as captured at failure time.
        "flight_recorder": report.flight_recorder,
        "failing_traces": report.failing_traces,
        # Monitoring (repro.obs.monitor): terminal per-node health and the
        # sim-time fault windows the perf oracle excluded.
        "health": report.health,
        "fault_windows": [list(window) for window in report.fault_windows],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if "plan" not in document:
        raise ValueError(f"{path} is not a chaos repro artifact (no plan)")
    return document


def _print_failures(report: ChaosReport) -> None:
    for failure in report.failures:
        print(f"  [{failure.oracle}] {failure.description}")


def _print_fleet_failures(result: FleetResult) -> None:
    for oracle, description in result.failures:
        print(f"  [{oracle}] {description}")
    if result.shrunk_faults is not None:
        print(
            f"  shrunk to {result.shrunk_faults} fault event(s), "
            f"{result.shrunk_segments} segment(s) in {result.shrink_runs} runs"
        )
    if result.artifact:
        print(f"  wrote {result.artifact}")
        print(f"  replay: python -m repro.chaos --replay {result.artifact}")


def _twin_label(outcome: "ChaosReport | FleetResult") -> str:
    if outcome.twin != "graded":
        return outcome.twin
    return "reused" if outcome.twin_reused else "simulated"


def _print_twins(labels: "Counter[str]") -> None:
    """What became of the runs' fault-free twins, on the progress stream.

    stderr, not stdout: simulated vs reused depends on which process ran
    what before, and stdout is the same at every worker count.
    """
    print(
        f"twins: {labels['simulated'] + labels['reused']} graded "
        f"({labels['simulated']} simulated, {labels['reused']} reused), "
        f"{labels['unjudgeable']} unjudgeable, {labels['not-needed']} not needed",
        file=sys.stderr,
    )


def _fleet_settings(args: argparse.Namespace) -> FleetSettings:
    return FleetSettings(
        bug_name=args.inject_bug,
        max_events=args.max_events,
        monitor=not args.no_monitor,
        perf_oracle=not args.no_monitor,
        shrink=not args.no_shrink,
        max_shrink_runs=args.max_shrink_runs,
        artifact_dir=args.artifact_dir,
    )


def _run_corpus_replay(args: argparse.Namespace) -> int:
    corpus = Corpus(args.corpus)
    if not corpus.entries:
        print(f"corpus {args.corpus} is empty: nothing to replay")
        return 0
    results, drift = replay_corpus(corpus, _fleet_settings(args), args.workers)
    failing = [result for result in results if not result.ok]
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        print(f"{status} {result.summary}")
    for entry in drift:
        print(
            f"DRIFT {entry.entry_id}: {entry.field_name} "
            f"{entry.recorded[:16]}… -> {entry.observed[:16]}…"
        )
    print(
        f"corpus replay: {len(results)} entr"
        + ("y" if len(results) == 1 else "ies")
        + f", {len(failing)} failing, {len(drift)} digest drift(s)"
    )
    _print_twins(Counter(map(_twin_label, results)))
    return 1 if failing or drift else 0


def _run_coverage(args: argparse.Namespace, seeds: List[int]) -> int:
    corpus = Corpus(args.corpus)
    settings = _fleet_settings(args)
    sweep_failures = 0
    if not corpus.entries:
        print(f"corpus {args.corpus} is empty: seeding from {len(seeds)} uniform seeds")
        results = run_seed_fleet(seeds, settings, args.workers)
        for result in results:
            if not result.ok:
                sweep_failures += 1
                print(f"FAIL {result.summary}")
                _print_fleet_failures(result)
        admitted = seed_corpus(corpus, results)
        print(f"  admitted {len(admitted)} of {len(results)} sweep runs")
    outcome = coverage_session(
        corpus,
        args.session_seed,
        args.coverage_runs,
        settings,
        workers=args.workers,
        log=print,
    )
    for result in outcome.failing:
        _print_fleet_failures(result)
    print(
        f"coverage session {args.session_seed}: {outcome.runs} mutant runs, "
        f"{len(outcome.admitted)} admitted, "
        f"{len(sorted(set(outcome.novel_features)))} novel feature(s), "
        f"{len(outcome.failing)} failing"
    )
    for feature in sorted(set(outcome.novel_features)):
        print(f"  novel: {feature}")
    metadata = corpus.read_metadata()
    coverage_counts: dict = {}
    for entry in corpus.ordered():
        for feature in entry.signature:
            coverage_counts[feature] = coverage_counts.get(feature, 0) + 1
    metadata["coverage"] = coverage_counts
    metadata.setdefault("sessions", []).append(outcome.to_dict())
    if args.lint_metadata:
        with open(args.lint_metadata, "r", encoding="utf-8") as handle:
            lint_document = json.load(handle)
        metadata["lint"] = {
            "version": lint_document.get("version"),
            "counts": lint_document.get("counts", {}),
        }
    corpus.write_metadata(metadata)
    return 1 if outcome.failing or sweep_failures else 0


def _run_fleet_sweep(args: argparse.Namespace, seeds: List[int]) -> int:
    settings = _fleet_settings(args)
    started = time.time()
    results = run_seed_fleet(seeds, settings, args.workers)
    elapsed = time.time() - started
    failures = 0
    for result in results:
        print(
            f"{result.summary}  "
            f"[fp {result.fingerprint[:16]} digest {result.trace_digest[:16]}]"
        )
        if not result.ok:
            failures += 1
            _print_fleet_failures(result)
    print(
        f"fleet: {len(results)} seed(s) on {args.workers} worker(s) "
        f"in {elapsed:.1f}s wall"
    )
    _print_twins(Counter(map(_twin_label, results)))
    if failures:
        print(f"{failures}/{len(results)} seed(s) failed")
        return 1
    print(f"all {len(results)} seed(s) passed every oracle")
    return 0


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.chaos",
        description="Seeded chaos fuzzing with invariant oracles and shrinking.",
    )
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="fuzz seeds 0..N-1")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        metavar="S", help="fuzz one specific seed (repeatable)")
    parser.add_argument("--replay", metavar="PATH", default=None,
                        help="re-run the plan stored in a chaos-repro artifact")
    parser.add_argument("--inject-bug", metavar="NAME", default=None,
                        help="run with an intentionally injected bug (self-test)")
    parser.add_argument("--list-bugs", action="store_true",
                        help="list injectable bugs and exit")
    parser.add_argument("--artifact-dir", metavar="DIR", default=".",
                        help="where to write chaos-repro-<seed>.json (default: .)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip schedule shrinking on failure")
    parser.add_argument("--no-monitor", action="store_true",
                        help="disable the monitoring layer and the "
                             "phase-latency oracle (neutrality check: "
                             "fingerprints must not change)")
    parser.add_argument("--max-events", type=int, default=4_000_000,
                        help="per-run simulator event budget")
    parser.add_argument("--max-shrink-runs", type=int, default=80,
                        help="re-run budget for the shrinker")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="fleet worker processes (default: 1, in-process; "
                             "results are identical at any count)")
    parser.add_argument("--corpus", metavar="DIR", default=".chaos-corpus",
                        help="coverage corpus directory (default: .chaos-corpus)")
    parser.add_argument("--corpus-replay", action="store_true",
                        help="re-run every corpus entry and fail on "
                             "fingerprint/trace-digest drift")
    parser.add_argument("--coverage-runs", type=int, default=None, metavar="N",
                        help="run a coverage-guided session of N mutant runs "
                             "(seeds the corpus from the uniform sweep first "
                             "when it is empty)")
    parser.add_argument("--session-seed", type=int, default=0, metavar="S",
                        help="RNG seed of the coverage session (default: 0)")
    parser.add_argument("--lint-metadata", metavar="PATH", default=None,
                        help="repro.lint --json output to fold into the "
                             "corpus metadata after a coverage session")
    args = parser.parse_args(argv)

    if args.list_bugs:
        print("injectable bugs (--inject-bug NAME):")
        for name in sorted(BUGS):
            print(f"  {name}: {BUGS[name].description}")
        return 0

    if args.inject_bug:
        get_bug(args.inject_bug)  # an unknown name fails here, not in a worker

    if args.replay:
        document = load_artifact(args.replay)
        plan = ChaosPlan.from_dict(document["plan"], args.replay)
        recorded_bug = document.get("bug")
        if args.inject_bug and recorded_bug and args.inject_bug != recorded_bug:
            parser.error(
                f"--inject-bug {args.inject_bug} conflicts with the bug recorded "
                f"in {args.replay} ({recorded_bug}); drop the flag to replay the "
                f"artifact as captured"
            )
        active_bug = recorded_bug or args.inject_bug
        replay_bug = get_bug(active_bug) if active_bug else None
        started = time.time()
        report = run_plan(
            plan,
            bug=replay_bug,
            max_events=args.max_events,
            monitor=not args.no_monitor,
            perf_oracle=not args.no_monitor,
        )
        elapsed = time.time() - started
        print(
            report.summary_line()
            + f"  [{elapsed:.1f}s wall, replay, bug: {active_bug or 'none'}]"
        )
        if report.failures:
            _print_failures(report)
            recorded = {entry["oracle"] for entry in document.get("failures", [])}
            live = {failure.oracle for failure in report.failures}
            if recorded and not (recorded & live):
                print("note: failure reproduced under different oracles than recorded")
            return 1
        print("replay passed all oracles (the recorded failure no longer reproduces)")
        return 0

    if args.corpus_replay:
        return _run_corpus_replay(args)

    seeds: List[int] = []
    if args.seed:
        seeds.extend(args.seed)
    if args.seeds is not None:
        seeds.extend(range(args.seeds))

    if args.coverage_runs is not None:
        # The seed list only matters when the corpus must be seeded first;
        # the uniform 25-seed sweep is the documented default base.
        return _run_coverage(args, seeds or list(range(25)))

    if not seeds:
        parser.error("nothing to do: pass --seeds N, --seed S or --replay PATH")

    return _run_fleet_sweep(args, seeds)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
