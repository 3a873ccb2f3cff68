"""Allowlist of vetted findings (``lint-baseline.toml``).

A baseline entry suppresses every finding of one rule in one file and must
carry a written justification — an unexplained suppression is a parse error,
not a warning.  Entries that no longer match anything are reported as *stale*
so the baseline shrinks as the code improves.

The file is TOML with one array of tables, each of three strings::

    [[suppress]]
    rule = "D102"
    path = "src/repro/chaos/cli.py"
    justification = "operator-facing progress timing; never feeds the simulation"
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.lint.findings import Finding


class BaselineError(Exception):
    """The baseline file is malformed or missing a justification."""


@dataclass
class BaselineEntry:
    """One vetted exception: a rule/path pair plus why it is acceptable."""

    rule: str
    path: str
    justification: str
    matches: int = field(default=0, compare=False)


_REQUIRED_KEYS = ("rule", "path", "justification")


def parse_baseline(path: str) -> List[BaselineEntry]:
    try:
        with open(path, "rb") as handle:
            document = tomllib.load(handle)
    except OSError as error:
        raise BaselineError(f"cannot read baseline {path}: {error}")
    except tomllib.TOMLDecodeError as error:
        raise BaselineError(f"{path}: not valid TOML: {error}")
    for name, value in document.items():
        if name == "suppress":
            continue
        if isinstance(value, (dict, list)):
            raise BaselineError(
                f"{path}: unknown table {name!r} (only [[suppress]] is supported)"
            )
        raise BaselineError(f"{path}: key {name!r} outside a [[suppress]] table")
    tables = document.get("suppress", [])
    if not isinstance(tables, list) or not all(isinstance(table, dict) for table in tables):
        raise BaselineError(f"{path}: suppress must be an array of tables ([[suppress]])")
    entries: List[BaselineEntry] = []
    for number, table in enumerate(tables, start=1):
        where = f"{path}: suppress entry {number}"
        for key in _REQUIRED_KEYS:
            if key not in table:
                raise BaselineError(f"{where} is missing {key!r}")
            if not isinstance(table[key], str):
                raise BaselineError(f"{where}: {key!r} must be a string")
        if not table["justification"].strip():
            raise BaselineError(
                f"{where} ({table['rule']} in {table['path']}) has an empty justification — "
                f"every vetted exception must say why it is acceptable"
            )
        entries.append(BaselineEntry(table["rule"], table["path"], table["justification"]))
    return entries


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[BaselineEntry]
) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
    """Split findings into (unsuppressed, suppressed) and list stale entries."""
    unsuppressed: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        entry = next(
            (
                candidate
                for candidate in entries
                if candidate.rule == finding.rule and candidate.path == finding.path
            ),
            None,
        )
        if entry is None:
            unsuppressed.append(finding)
        else:
            entry.matches += 1
            suppressed.append(finding)
    stale = [entry for entry in entries if entry.matches == 0]
    return unsuppressed, suppressed, stale
