"""The rule engine: parse once, run per-file visitors plus project passes.

Two rule shapes:

* :class:`FileRule` — examines one parsed module at a time (most determinism
  and purity rules).
* :class:`ProjectRule` — sees every parsed module at once, for cross-file
  facts ("this message class is never dispatched", "this counter field is
  never incremented").

Each rule owns a path predicate (:meth:`Rule.applies_to`) so e.g. wall-clock
rules skip the bench/CLI layers by construction rather than by baseline.
``run_rules(..., ignore_scopes=True)`` bypasses the predicates — the
self-test corpus exercises every rule regardless of where it is checked out.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, List, Sequence

from repro.lint.findings import Finding


class LintError(Exception):
    """A problem with the lint run itself (unreadable file, syntax error)."""


@dataclass
class SourceFile:
    """One parsed module: display path, raw source, AST and split lines."""

    path: str  # normalised posix path used in findings and baselines
    source: str
    tree: ast.Module
    lines: List[str]

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of :attr:`tree`, in ``ast.walk`` order, walked once for all rules."""
        return list(ast.walk(self.tree))

    def snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


def display_path(path: str) -> str:
    """Posix path relative to the current directory when inside it."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute == cwd or absolute.startswith(cwd + os.sep):
        absolute = os.path.relpath(absolute, cwd)
    return absolute.replace(os.sep, "/")


def parse_file(path: str) -> SourceFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as error:
        raise LintError(f"cannot read {path}: {error}")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise LintError(f"cannot parse {path}: {error}")
    return SourceFile(
        path=display_path(path),
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def collect_files(paths: Sequence[str]) -> List[SourceFile]:
    """Parse every ``.py`` file under ``paths`` (files or directories)."""
    names: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for directory, _dirnames, filenames in os.walk(path):
                for filename in filenames:
                    if filename.endswith(".py"):
                        names.append(os.path.join(directory, filename))
        elif path.endswith(".py"):
            names.append(path)
        else:
            raise LintError(f"not a python file or directory: {path}")
    return [parse_file(name) for name in sorted(set(names))]


class Rule:
    """Base interface shared by file and project rules."""

    id: str = ""
    name: str = ""
    severity: str = "error"
    rationale: str = ""

    def applies_to(self, path: str) -> bool:
        return True


class FileRule(Rule):
    """A rule that inspects one module at a time."""

    def check(self, file: SourceFile) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, file: SourceFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=file.path,
            line=line,
            message=message,
            snippet=file.snippet(line),
        )


class ProjectRule(Rule):
    """A rule that inspects the whole file set at once."""

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, file: SourceFile, line: int, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=file.path,
            line=line,
            message=message,
            snippet=file.snippet(line),
        )


def run_rules(
    files: Sequence[SourceFile],
    rules: Iterable[Rule],
    ignore_scopes: bool = False,
) -> List[Finding]:
    """Run ``rules`` over ``files`` and return sorted, deduplicated findings."""
    findings: List[Finding] = []
    for rule in rules:
        if isinstance(rule, FileRule):
            for file in files:
                if ignore_scopes or rule.applies_to(file.path):
                    findings.extend(rule.check(file))
        elif isinstance(rule, ProjectRule):
            scoped = [
                file
                for file in files
                if ignore_scopes or rule.applies_to(file.path)
            ]
            if scoped:
                findings.extend(rule.check_project(scoped))
        else:
            raise LintError(f"rule {rule!r} is neither a FileRule nor a ProjectRule")
    return sorted(set(findings), key=Finding.sort_key)


# ---------------------------------------------------------------------------
# Shared AST helpers used by several rule modules
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a Name/Attribute chain (``"a.b.c"``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("")  # chain rooted in a call/subscript: keep the suffix
    return ".".join(reversed(parts))


def call_name(node: ast.Call) -> str:
    """Dotted name of a call's callee (empty for lambdas etc.)."""
    return dotted_name(node.func)


def is_dataclass(node: ast.ClassDef) -> bool:
    """True for a class decorated ``@dataclass`` / ``@dataclass(...)``."""
    return any(
        dotted_name(d.func if isinstance(d, ast.Call) else d).endswith("dataclass")
        for d in node.decorator_list
    )


def functions_in(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """The function definitions among ``nodes`` (a :attr:`SourceFile.nodes`)."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
