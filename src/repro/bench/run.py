"""Command-line entry point for regenerating the paper's figures and tables.

Usage::

    python -m repro.bench.run --list
    python -m repro.bench.run fig4 fig6
    python -m repro.bench.run all --json BENCH_results.json --results benchmark_results
    REPRO_BENCH_SCALE=4 python -m repro.bench.run table1

Each experiment prints the reproduced rows/series as an aligned text table,
then one line per gate of its registry row — ``fig9: <claim> — observed …`` —
and the run exits 1 if any gate failed (2 is a usage error).  ``--results
DIR`` also writes each rendered table to ``DIR/<id>.txt``: at scale 1 those
are the committed ``benchmark_results/``, so ``git diff`` is the comparison.
``--json PATH`` writes a machine-readable document (one entry per experiment,
with wall-clock times and the scale factor).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List

from repro.bench.experiments import EXPERIMENTS
from repro.bench.harness import Harness
from repro.bench.scale import scale_factor
from repro.obs.export import chrome_trace_document, write_json


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="transedge-bench",
        description="Regenerate the TransEdge paper's figures and tables from the simulation.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (fig4..fig16, table1, ablation-*) or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write results as machine-readable JSON to PATH",
    )
    parser.add_argument(
        "--results",
        metavar="DIR",
        default=None,
        help="also write each rendered table to DIR/<id>.txt",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "enable causal tracing (repro.obs) in every experiment deployment "
            "and write the last traced run's Chrome-trace JSON to PATH"
        ),
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments (pass ids or 'all'): id, gates, what it reproduces")
        for row in EXPERIMENTS.values():
            print(f"  {row.id:<20}{len(row.gates):>2}  {row.paper}")
        return 0

    requested = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        # Fail fast on a bad scale or an unwritable path, not after the experiments.
        scale = scale_factor()
        if args.json:
            with open(args.json, "a", encoding="utf-8"):
                pass
        if args.results:
            os.makedirs(args.results, exist_ok=True)
    except (ValueError, OSError) as error:
        print(f"transedge-bench: {error}", file=sys.stderr)
        return 2

    print(f"scale factor: {scale} (set REPRO_BENCH_SCALE to change)")
    document = {"scale_factor": scale, "unix_time": time.time(), "experiments": {}}
    harness = Harness(trace=bool(args.trace))
    evaluated, failed = 0, []
    for name in requested:
        row = EXPERIMENTS[name]
        started = time.time()
        result = row.produce(harness)
        elapsed = time.time() - started
        text = result.render()
        print()
        print(text)
        print(f"[{name} completed in {elapsed:.1f}s wall clock]")
        for gate in row.gates:
            held, observed = gate.evaluate(result)
            evaluated += 1
            line = f"{name}: {gate.claim} — observed {observed}"
            print(f"  {'ok  ' if held else 'FAIL'} {line}")
            if not held:
                failed.append(line)
        document["experiments"][name] = {
            "elapsed_s": round(elapsed, 3),
            "result": result.to_dict(),
        }
        if args.results:
            with open(os.path.join(args.results, f"{name}.txt"), "w", encoding="utf-8") as handle:
                handle.write(text + "\n")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote JSON results to {args.json}")

    if args.trace:
        if harness.traced is None:
            print("--trace: no experiment built a traced deployment", file=sys.stderr)
        else:
            chrome = chrome_trace_document(harness.traced)
            write_json(chrome, args.trace)
            print(
                f"wrote Chrome trace ({len(chrome['traceEvents'])} events, "
                f"digest {harness.traced.tracer.digest()[:16]}…) to {args.trace}"
            )

    print(f"\n{evaluated} gates evaluated, {len(failed)} failed")
    for line in failed:
        print(f"FAILED GATE {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
