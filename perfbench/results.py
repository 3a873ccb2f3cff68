"""Result files: ``<run-dir>/<workload>/{e2e.json,layers.json,spans.json}``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from perfbench.measure import Outcome

E2E, LAYERS, SPANS = "e2e.json", "layers.json", "spans.json"


def _format(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_outcome(outcome: Outcome) -> None:
    mode = "traced, 1 repetition" if outcome.traced else f"untraced, {outcome.repetitions} timed repetitions"
    print(f"== {outcome.workload}  seed {outcome.seed}  scale {outcome.scale:g}  ({mode})")
    width = max(len(name) for name in outcome.metrics)
    for name, entry in outcome.metrics.items():
        line = f"  {name:<{width}}  {_format(entry['value']):>12} {entry['unit']}"
        if "min" in entry:
            line += f"   [repetitions: min {_format(entry['min'])}, max {_format(entry['max'])}]"
        if "samples" in entry:
            line += f"   ({entry['samples']} samples)"
        print(line)
    print(f"  attempted {outcome.attempted}, failed {outcome.failed}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for problem in outcome.problems:
        print(f"  INCORRECT: {problem}")
    print(f"  outputs {'correct' if outcome.correct else 'INCORRECT'}")


def to_json(outcome: Outcome) -> Dict[str, object]:
    return {
        "workload": outcome.workload,
        "seed": outcome.seed,
        "scale": outcome.scale,
        "traced": outcome.traced,
        "repetitions": outcome.repetitions,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "metrics": outcome.metrics,
    }


def write_outcome(outcome: Outcome, run_dir: Path) -> Path:
    directory = Path(run_dir) / outcome.workload
    directory.mkdir(parents=True, exist_ok=True)
    name = LAYERS if outcome.traced else E2E
    (directory / name).write_text(json.dumps(to_json(outcome), indent=1, sort_keys=True) + "\n")
    if outcome.recorder is not None:
        (directory / SPANS).write_text(json.dumps(outcome.recorder.to_json()) + "\n")
    return directory


def load_run(run_dir: Path, name: str = E2E) -> Dict[str, Dict[str, object]]:
    """``{workload: result}`` for every workload directory holding ``name``."""
    found = {}
    for path in sorted(Path(run_dir).glob(f"*/{name}")):
        found[path.parent.name] = json.loads(path.read_text())
    if not found:
        raise FileNotFoundError(f"no {name} under {run_dir}")
    return found
