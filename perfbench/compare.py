"""Compare two result directories: one row per (metric, workload).

Verdicts follow the choosing-metrics guide: a host-time metric whose best
repetitions disagree by more than its bound is ``unresolved`` (never ``same``),
otherwise ``worse`` / ``better`` when the medians differ by more than the
bound and ``same`` when they do not.  Simulated metrics depend on the seed
alone, so *any* difference is a verdict and is flagged for explanation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import metrics, results

#: Differences below this absolute size are never a regression.
ABSOLUTE_FLOOR = {"setup_s": 0.05}

CHANGED = "simulated result changed — explain"


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    base: float
    other: float
    bound: Optional[float]
    spread: float
    verdict: str
    note: str = ""

    @property
    def ratio(self) -> float:
        return self.other / self.base if self.base else float("inf")


def spread_of(entry: Dict[str, object], better: str) -> float:
    """How far apart the two best repetitions are, as a share of the best.

    The reported value is a quiet-machine estimate: it rests on the fastest
    repetitions, so it is only as certain as those agree with each other
    (slower ones were disturbed and say nothing about the program).
    """
    reps = sorted(entry.get("reps") or [], reverse=(better == "higher"))
    if len(reps) < 2 or not reps[0]:
        return 0.0
    return abs(reps[1] - reps[0]) / abs(reps[0])


def judge(definition: metrics.EndToEnd, base: Dict[str, object], other: Dict[str, object],
          workload: str, same_seed: bool) -> Row:
    a, b = float(base["value"]), float(other["value"])
    sign = 1.0 if definition.better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    row = Row(workload, definition.name, definition.unit, a, b, definition.bound, 0.0, "same")
    if same_seed and metrics.is_exact(definition.name):
        # A function of the seed alone: any difference is real.
        row.bound = 0.0
        if a != b:
            row.verdict = "worse" if worse_by > 0 else "better"
            row.note = CHANGED
        return row
    row.spread = max(spread_of(base, definition.better), spread_of(other, definition.better))
    if row.spread > definition.bound:
        row.verdict = "unresolved"
        row.note = f"best repetitions {row.spread:.1%} apart > bound"
    elif abs(b - a) <= ABSOLUTE_FLOOR.get(definition.name, 0.0):
        row.verdict = "same"
    elif worse_by > definition.bound:
        row.verdict = "worse"
    elif worse_by < -definition.bound:
        row.verdict = "better"
    return row


def compare(base_dir: Path, other_dir: Path) -> List[Row]:
    base_run = results.load_run(base_dir)
    other_run = results.load_run(other_dir)
    rows: List[Row] = []
    for workload in base_run:
        if workload not in other_run:
            continue
        base, other = base_run[workload], other_run[workload]
        same_seed = (base["seed"], base["scale"]) == (other["seed"], other["scale"])
        definitions = metrics.END_TO_END + (metrics.SIMULATED_EXTRA if same_seed else ())
        for definition in definitions:
            name = definition.name
            if name in base["metrics"] and name in other["metrics"]:
                rows.append(
                    judge(definition, base["metrics"][name], other["metrics"][name], workload, same_seed)
                )
    return rows


def render(rows: List[Row], base_dir: Path, other_dir: Path) -> str:
    lines = [f"base  A = {base_dir}", f"other B = {other_dir}", ""]
    header = f"{'workload':<13} {'metric':<20} {'A (base)':>12} {'B':>12} {'B/A':>8} {'bound':>7} {'spread':>7}  verdict"
    lines += [header, "-" * len(header)]
    for row in rows:
        bound = "exact" if row.bound == 0.0 else f"{row.bound:.0%}"
        lines.append(
            f"{row.workload:<13} {row.metric:<20} {row.base:>12.6g} {row.other:>12.6g} "
            f"{row.ratio:>8.4f} {bound:>7} {row.spread:>7.1%}  {row.verdict}"
            + (f"  ({row.note})" if row.note else "")
        )
    counts = {v: sum(1 for row in rows if row.verdict == v) for v in ("better", "same", "worse", "unresolved")}
    lines.append("")
    lines.append("  ".join(f"{verdict}: {count}" for verdict, count in counts.items())
                 + "   (ratios are B/A; A is the base)")
    return "\n".join(lines)


def main(base_dir: Path, other_dir: Path) -> int:
    rows = compare(base_dir, other_dir)
    print(render(rows, base_dir, other_dir))
    return 1 if any(row.verdict == "worse" for row in rows) else 0
