"""``python -m perfbench run | compare | gate`` — the benchmark's front end.

``run`` declares the workload table, prints the plan, runs every workload in
its own subprocess (sequentially: the reference box has 2 cores) — first the
untraced pass, then the traced pass — into ``perfbench/results/<run-id>/``,
and fails if any output is incorrect.  ``compare A B`` judges two result
directories; ``gate`` is ``run`` + ``compare`` against the committed
``perfbench/baseline``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
BASELINE = PACKAGE / "baseline"


def _program_on_path() -> None:
    # ``PYTHONPATH=src`` is the documented way to run; fall back to the
    # checkout's own src/ so ``python -m perfbench`` also works without it.
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def plan_table() -> str:
    from perfbench import metrics, workloads

    lines = ["workload       deployment and load"]
    for workload in workloads.WORKLOADS:
        lines.append(f"{workload.name:<14} {workload.deployment}")
        lines.append(f"{'':<14} load: {workload.load}")
        lines.append(f"{'':<14} why:  {workload.why}")
    lines.append("")
    lines.append("end-to-end metrics (untraced pass; bound = allowed worsening vs the parent):")
    for metric in metrics.END_TO_END:
        lines.append(f"  {metric.name:<16} {metric.unit:<6} {metric.better:<7} {metric.bound:>5.0%}  {metric.what}")
    lines.append(f"per-layer metrics (traced pass): {len(metrics.PER_LAYER)}, see perfbench/README.md")
    return "\n".join(lines)


def run_all(args: argparse.Namespace) -> "tuple[int, Path | None]":
    """Status and the results directory (``None`` when only the plan was printed)."""
    from perfbench import workloads

    print(plan_table())
    if args.plan:
        return 0, None
    names = args.workloads.split(",") if args.workloads else [w.name for w in workloads.WORKLOADS]
    for name in names:
        workloads.by_name(name)  # fail on a typo before anything runs
    run_id = time.strftime("%Y%m%d-%H%M%S") + f"-seed{args.seed}"
    out = args.out if args.out is not None else PACKAGE / "results" / run_id
    print(f"\nresults directory: {out}\n")
    failed = []
    for traced in (0, 1):
        for name in names:
            command = [
                sys.executable, str(PACKAGE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scale", str(args.scale), "--trace", str(traced), "--out", str(out),
            ]
            completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            # The last line is the machine-readable JSON; everything above it
            # is the by-name listing.
            print("\n".join(completed.stdout.rstrip("\n").split("\n")[:-1]), flush=True)
            if completed.returncode != 0:
                failed.append(f"{name} ({'traced' if traced else 'untraced'})")
    if failed:
        print("\nFAILED: " + ", ".join(failed))
        return 1, out
    print(f"\nall outputs correct; results in {out}")
    return 0, out


def run(args: argparse.Namespace) -> int:
    return run_all(args)[0]


def compare(args: argparse.Namespace) -> int:
    from perfbench import compare as comparison

    return comparison.main(args.base, args.other)


def gate(args: argparse.Namespace) -> int:
    from perfbench import compare as comparison

    status, out = run_all(args)
    if status != 0 or out is None:
        return status
    print()
    return comparison.main(BASELINE, out)


def parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__.splitlines()[0])
    commands = top.add_subparsers(dest="command", required=True)

    def run_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
        p.add_argument("--out", type=Path, default=None, help="results directory")
        p.add_argument("--seconds", type=float, default=20.0,
                       help="seconds of timed repetitions per workload")
        p.add_argument("--scale", type=float, default=1.0, help="multiply operation counts")
        p.add_argument("--workloads", default="", help="comma-separated subset")
        p.add_argument("--plan", action="store_true", help="print the plan and exit")

    p = commands.add_parser("run", help="run the workloads: untraced pass, then traced pass")
    run_options(p)
    p.set_defaults(handler=run)
    p = commands.add_parser("compare", help="judge result directory B against base A")
    p.add_argument("base", type=Path)
    p.add_argument("other", type=Path)
    p.set_defaults(handler=compare)
    p = commands.add_parser("gate", help="run, then compare against perfbench/baseline")
    run_options(p)
    p.set_defaults(handler=gate)
    return top


def main(argv=None) -> int:
    args = parser().parse_args(argv)
    _program_on_path()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
