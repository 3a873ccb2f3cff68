#!/usr/bin/env python3
"""Run one workload once: ``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1``.

This is the command ``BENCHMARK.json`` names.  It prints every metric by
name with its unit, checks the outputs, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0`` (untraced, timed repetitions), the per-layer metrics with
``--trace 1`` (one traced repetition).  Exit status is non-zero when an
output is wrong, or when the program under test (``src/``) is missing.
"""

import argparse
import json
import sys
from pathlib import Path

if __name__ == "__main__":
    # Started as a script: import ``perfbench`` as a package and the program
    # from ``src/``; drop the script directory so ``perfbench/trace.py`` can
    # never shadow the standard library's ``trace``.
    _root = Path(__file__).resolve().parent.parent
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != _root / "perfbench"]
    sys.path[:0] = [str(_root / "src"), str(_root)]


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long the timed repetitions last (untraced pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="multiply operation counts (tests use 0.05)")
    p.add_argument("--out", type=Path, default=None,
                   help="directory for e2e.json / layers.json / spans.json")
    return p


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    try:
        from perfbench import measure, metrics, results, workloads
    except ModuleNotFoundError as error:
        if error.name != "repro":
            raise
        print("perfbench: the program under test is missing (no src/repro beside perfbench/)",
              file=sys.stderr)
        return 2

    workload = workloads.by_name(args.workload)
    if args.trace:
        outcome = measure.trace(workload, args.seed, args.scale)
        contract = [m.name for m in metrics.PER_LAYER]
    else:
        outcome = measure.measure(workload, args.seed, args.seconds, args.scale)
        contract = [m.name for m in metrics.END_TO_END]
    results.print_outcome(outcome)
    if args.out is not None:
        results.write_outcome(outcome, args.out)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name]["value"], "unit": outcome.metrics[name]["unit"]}
            for name in contract
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
