"""Command-line interface of the static analyzer.

::

    python -m repro.lint                      # lint src/repro with the baseline
    python -m repro.lint --rule D103 src/     # one rule over another tree
    python -m repro.lint --json               # machine-readable findings
    python -m repro.lint --self-test          # rules vs the violation corpus
    python -m repro.lint --list-rules         # rule catalog

Exit codes: 0 — clean (or everything suppressed by a justified baseline);
1 — unbaselined findings or a failed self-test; 2 — usage, parse or
baseline errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lint.baseline import BaselineError, apply_baseline, parse_baseline
from repro.lint.engine import LintError, collect_files, run_rules
from repro.lint.rules import all_rules, select_rules
from repro.lint.selftest import run_selftest

#: Bumped when a field is added/renamed/removed in the --json document
#: (2: a stale baseline entry is named by rule and path, with no line).
JSON_SCHEMA_VERSION = 2

DEFAULT_TARGET = os.path.join("src", "repro")
DEFAULT_BASELINE = "lint-baseline.toml"
DEFAULT_CORPUS = os.path.join("tests", "lint", "corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based determinism & protocol-safety analyzer",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to lint (default: {DEFAULT_TARGET})",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="ID",
        help="run only this rule id (repeatable)",
    )
    parser.add_argument("--json", action="store_true", help="emit findings as JSON")
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run every rule against the violation corpus and exit",
    )
    parser.add_argument(
        "--corpus",
        default=DEFAULT_CORPUS,
        metavar="DIR",
        help=f"corpus directory for --self-test (default: {DEFAULT_CORPUS})",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    return parser


def _list_rules() -> int:
    for rule in all_rules():
        kind = "project" if hasattr(rule, "check_project") else "file"
        print(f"{rule.id}  {rule.name:<20} [{kind:>7}]  {rule.rationale}")
    return 0


def _run_selftest(corpus: str) -> int:
    results = run_selftest(corpus)
    failed = [result for result in results if not result.ok]
    for result in results:
        status = "ok  " if result.ok else "FAIL"
        print(f"{status} {result.rule_id:<8} {result.detail}")
    total = len(results)
    print(
        f"self-test: {total - len(failed)}/{total} checks passed"
        + ("" if not failed else f", {len(failed)} FAILED")
    )
    return 0 if not failed else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()
    if args.self_test:
        return _run_selftest(args.corpus)

    try:
        rules = select_rules(args.rules)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2

    paths = args.paths or [DEFAULT_TARGET]
    try:
        files = collect_files(paths)
        findings = run_rules(files, rules)
    except LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE
    entries = []
    if baseline_path and not args.no_baseline:
        try:
            entries = parse_baseline(baseline_path)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    unsuppressed, suppressed, stale = apply_baseline(findings, entries)

    if args.json:
        document = {
            "version": JSON_SCHEMA_VERSION,
            "rules": [
                {"id": rule.id, "name": rule.name, "severity": rule.severity}
                for rule in rules
            ],
            "findings": [
                dict(finding.to_dict(), suppressed=False) for finding in unsuppressed
            ]
            + [dict(finding.to_dict(), suppressed=True) for finding in suppressed],
            "stale_baseline": [
                {"rule": entry.rule, "path": entry.path}
                for entry in stale
            ],
            "counts": {
                "files": len(files),
                "findings": len(unsuppressed),
                "suppressed": len(suppressed),
                "stale_baseline": len(stale),
            },
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for finding in unsuppressed:
            print(finding.render())
        for entry in stale:
            print(
                f"{baseline_path}: stale baseline entry "
                f"({entry.rule} in {entry.path}) matches nothing — remove it"
            )
        summary = (
            f"{len(files)} files, {len(unsuppressed)} finding(s), "
            f"{len(suppressed)} suppressed by baseline, {len(stale)} stale entr"
            + ("y" if len(stale) == 1 else "ies")
        )
        print(("clean: " if not unsuppressed else "") + summary)
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
