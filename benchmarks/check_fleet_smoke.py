"""Fleet smoke gate: parallel determinism plus the coverage-guided demo.

Two acceptance checks, both printed so the CI log is the evidence:

1. **Byte-identical parallelism** — the uniform 25-seed sweep run serially
   and on a 4-worker pool must produce identical fingerprints and trace
   digests for every seed.
2. **Coverage beyond uniform seeds** — a coverage-guided session grown from
   the sweep corpus must reach at least one rare counter
   (``catchup_recoveries``, ``snapshot_rebuilds`` or
   ``transport_retransmits_abandoned``) that uniform seeds 0..24 never hit.
   The session seed is pinned: session 0 is verified clean (no oracle
   failures) and reaches ``transport_retransmits_abandoned`` via the
   ``long-crash`` mutation, which stretches one solitary outage past the
   reliable channel's whole retransmission budget.

Usage::

    PYTHONPATH=src python benchmarks/check_fleet_smoke.py [--workers N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.chaos.corpus import Corpus
from repro.chaos.fleet import (
    FleetSettings,
    coverage_session,
    run_seed_fleet,
    seed_corpus,
)

SWEEP_SEEDS = range(25)

#: The acceptance counters: reaching any one of them beyond the uniform
#: baseline demonstrates coverage-guided search paying off.
DEMO_COUNTERS = {
    "counter:catchup_recoveries",
    "counter:snapshot_rebuilds",
    "counter:transport_retransmits_abandoned",
}

#: Pinned demo session: seed 0, 16 mutant runs — deterministic in the
#: sweep-seeded corpus, verified clean, reaches the transport-abandon
#: counters the uniform sweep cannot.
SESSION_SEED = 0
SESSION_RUNS = 16


def fail(message: str) -> int:
    print(f"FAIL: {message}")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args()

    settings = FleetSettings(shrink=False, artifact_dir=None)

    print(f"[1/2] uniform sweep, serial vs {args.workers} workers")
    serial = run_seed_fleet(SWEEP_SEEDS, settings, workers=1)
    fleet = run_seed_fleet(SWEEP_SEEDS, settings, workers=args.workers)
    for one, two in zip(serial, fleet):
        if (one.fingerprint, one.trace_digest) != (two.fingerprint, two.trace_digest):
            return fail(
                f"seed {one.seed}: serial fp {one.fingerprint} digest "
                f"{one.trace_digest} != parallel fp {two.fingerprint} "
                f"digest {two.trace_digest}"
            )
        print(f"  seed {one.seed:2d}: fp {one.fingerprint} digest {one.trace_digest}")
    print(
        f"  {len(serial)} seeds byte-identical at workers 1 and {args.workers}"
    )
    sweep_failures = [result for result in fleet if not result.ok]
    if sweep_failures:
        for result in sweep_failures:
            print(f"  FAIL {result.summary}: {result.failures}")
        return fail(f"{len(sweep_failures)} sweep seed(s) failed an oracle")

    print(f"[2/2] coverage session {SESSION_SEED} ({SESSION_RUNS} mutant runs)")
    baseline_features = set()
    for result in fleet:
        baseline_features.update(result.signature)
    print(f"  uniform baseline features: {', '.join(sorted(baseline_features))}")
    with tempfile.TemporaryDirectory(prefix="fleet-smoke-corpus-") as directory:
        corpus = Corpus(directory)
        seed_corpus(corpus, fleet)
        outcome = coverage_session(
            corpus,
            SESSION_SEED,
            SESSION_RUNS,
            settings,
            workers=args.workers,
            log=lambda line: print(f"  {line.strip()}"),
        )
    if outcome.failing:
        for result in outcome.failing:
            print(f"  FAIL {result.summary}: {result.failures}")
        return fail(f"{len(outcome.failing)} mutant run(s) failed an oracle")
    beyond = sorted(set(outcome.novel_features) - baseline_features)
    print(f"  features beyond uniform seeds 0..24: {', '.join(beyond) or 'none'}")
    demo = sorted(set(beyond) & DEMO_COUNTERS)
    if not demo:
        return fail(
            "coverage session reached no rare counter beyond the uniform "
            f"baseline (wanted one of {sorted(DEMO_COUNTERS)})"
        )
    for feature in demo:
        print(f"  DEMO: coverage-guided mutation reached {feature}, "
              f"which no uniform seed 0..24 hits")
    print("fleet smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
