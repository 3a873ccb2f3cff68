"""X-rules: cross-artifact coverage (the code vs its CI and test harness).

The chaos engine's ``--inject-bug`` registry is a self-test catalogue: each
entry re-introduces one defect so the oracle suite can prove it still
catches it.  A registered bug that *nothing replays* — no ``--inject-bug``
step in the CI workflow, no pinned test quoting its name — is a self-test
that can rot silently: the patch drifts out of sync with the code it
patches and nobody notices until the day the oracle is actually needed.
That is a cross-artifact fact (python registry vs YAML workflow vs test
tree), which is exactly what a :class:`ProjectRule` with an evidence
sweep can prove.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterator, List, Sequence, Set, Tuple

from repro.lint.engine import ProjectRule, SourceFile, call_name
from repro.lint.findings import Finding

_INJECT_BUG_STEP = re.compile(r"--inject-bug[\s=]+([A-Za-z0-9_-]+)")


def _is_test_path(path: str) -> bool:
    """Is this scanned file itself test evidence (a pinned test)?"""
    parts = path.replace(os.sep, "/").split("/")
    return "tests" in parts or parts[-1].startswith("test_")


def _registrations(
    files: Sequence[SourceFile],
) -> List[Tuple[SourceFile, int, str]]:
    """Every ``InjectedBug(name="...")`` construction in the scanned tree."""
    found: List[Tuple[SourceFile, int, str]] = []
    for file in files:
        for node in file.nodes:
            if not isinstance(node, ast.Call):
                continue
            if call_name(node).split(".")[-1] != "InjectedBug":
                continue
            name = None
            for keyword in node.keywords:
                if (
                    keyword.arg == "name"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                ):
                    name = keyword.value.value
            if (
                name is None
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                name = node.args[0].value
            if name:
                found.append((file, node.lineno, name))
    return found


class BugSelfTestCoverageRule(ProjectRule):
    """X501: every injectable-bug registry entry is replayed somewhere."""

    id = "X501"
    name = "bug-self-test-coverage"
    rationale = (
        "an InjectedBug nobody replays (no --inject-bug CI step, no pinned "
        "test quoting its name) is a self-test that rots silently: the "
        "patch drifts from the code it patches and the oracle it proves is "
        "never proven again"
    )

    #: Evidence swept outside the linted tree, relative to the working
    #: directory: workflow YAML for ``--inject-bug <name>`` steps, and the
    #: test tree for the quoted bug name (a pinned test).
    workflow_dir = os.path.join(".github", "workflows")
    external_test_dir = "tests"

    def _workflow_bugs(self) -> Set[str]:
        names: Set[str] = set()
        if not os.path.isdir(self.workflow_dir):
            return names
        for entry in sorted(os.listdir(self.workflow_dir)):
            if not entry.endswith((".yml", ".yaml")):
                continue
            try:
                with open(
                    os.path.join(self.workflow_dir, entry), "r", encoding="utf-8"
                ) as handle:
                    names.update(_INJECT_BUG_STEP.findall(handle.read()))
            except OSError:
                continue
        return names

    def _external_test_quotes(self, name: str, scanned: Set[str]) -> bool:
        """Does a test file *outside the scanned set* quote ``name``?

        Scanned files are excluded so a fixture that registers a bug cannot
        count its own registration literal as pinned-test evidence.
        """
        if not os.path.isdir(self.external_test_dir):
            return False
        quoted = (f'"{name}"', f"'{name}'")
        for directory, _dirnames, filenames in os.walk(self.external_test_dir):
            for filename in filenames:
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(directory, filename)
                if path.replace(os.sep, "/") in scanned:
                    continue
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        text = handle.read()
                except OSError:
                    continue
                if any(literal in text for literal in quoted):
                    return True
        return False

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        registrations = _registrations(files)
        if not registrations:
            return
        # In-scan evidence: a *test* file in the scanned set quoting the
        # name (the self-test corpus ships its pin inside the fixture).
        # Files that register bugs are excluded — a registration literal is
        # not a replay, even when the registry lives under a test tree.
        registry_paths = {file.path for file, _line, _name in registrations}
        in_scan: Set[str] = set()
        for file in files:
            if file.path in registry_paths or not _is_test_path(file.path):
                continue
            for node in file.nodes:
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    in_scan.add(node.value)
        workflow_bugs = self._workflow_bugs()
        scanned_paths = {file.path for file in files}
        for file, line, name in registrations:
            if name in workflow_bugs:
                continue
            if name in in_scan:
                continue
            if self._external_test_quotes(name, scanned_paths):
                continue
            yield self.finding(
                file,
                line,
                f"injectable bug {name!r} is registered but never replayed: "
                f"no --inject-bug step in {self.workflow_dir}/*.yml and no "
                f"test under {self.external_test_dir}/ quotes it",
            )
