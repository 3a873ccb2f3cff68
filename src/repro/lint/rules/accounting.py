"""A-rules: accounting completeness (cross-file).

The chaos fingerprint and every benchmark note are built from counters; a
counter that is declared but never incremented reads as a permanently-zero
signal.  The defect is invisible at runtime — zero looks like "nothing
happened" — which is exactly what a static pass can prove absent.  (That
every per-replica counter reaches the system-wide aggregate needs no rule:
``SystemCounters`` extends ``ReplicaCounters`` and folds over its fields.)
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence, Set, Tuple

from repro.lint.engine import ProjectRule, SourceFile
from repro.lint.findings import Finding

_COUNTER_CLASSES = ("SystemCounters", "ReplicaCounters")


def _counter_fields(
    files: Sequence[SourceFile], class_name: str
) -> List[Tuple[SourceFile, str, int]]:
    """(file, field, line) for every annotated field of ``class_name``."""
    fields: List[Tuple[SourceFile, str, int]] = []
    for file in files:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for statement in node.body:
                    if isinstance(statement, ast.AnnAssign) and isinstance(
                        statement.target, ast.Name
                    ):
                        fields.append((file, statement.target.id, statement.lineno))
    return fields


class CounterIncrementRule(ProjectRule):
    """A401: every counter field is incremented or assigned somewhere."""

    id = "A401"
    name = "counter-incremented"
    rationale = (
        "a SystemCounters/ReplicaCounters field nobody increments is a "
        "permanently-zero metric: dashboards, oracles and fingerprints read "
        "it as 'nothing happened' forever"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        # Attribute names that appear as assignment/aug-assignment targets
        # anywhere (x.field += 1, total.field = ...), outside class bodies.
        stored: Set[str] = set()
        for file in files:
            for node in ast.walk(file.tree):
                targets: List[ast.AST] = []
                if isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.Assign):
                    targets = list(node.targets)
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        stored.add(target.attr)
        for class_name in _COUNTER_CLASSES:
            for file, field, line in _counter_fields(files, class_name):
                if field not in stored:
                    yield self.finding(
                        file,
                        line,
                        f"counter field {class_name}.{field} is never "
                        f"incremented or assigned anywhere in the scanned tree",
                    )
