"""M-rules: memoisation on value objects.

The value classes of ``core``/``bft``/``recovery`` are frozen dataclasses
that every simulated node holds by reference, so a derived fact (a digest,
a key-set split, a canonical encoding) is computed once and kept on the
object.  That memo lives in the instance ``__dict__`` — which ``copy`` and
``pickle`` carry along — and a byzantine sender is modelled as "deep-copy,
then mutate": a memo that survives the copy answers for the honest fields.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.engine import FileRule, SourceFile, dotted_name, is_dataclass
from repro.lint.findings import Finding

_VALUE_PACKAGES = ("repro/core/", "repro/bft/", "repro/recovery/")
_COPY_SAFE_BASE = "MemoisedValue"


def _instance_memos(node: ast.ClassDef) -> List[Tuple[int, str]]:
    """``(line, name)`` of every attribute the class stores beside its fields."""
    fields = {
        statement.target.id
        for statement in node.body
        if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
    }
    memos: List[Tuple[int, str]] = []
    for statement in node.body:
        if not isinstance(statement, ast.FunctionDef):
            continue
        if any(dotted_name(d).endswith("cached_property") for d in statement.decorator_list):
            memos.append((statement.lineno, statement.name))
        for inner in ast.walk(statement):
            # object.__setattr__(self, "name", value): how a frozen dataclass stores.
            if (
                isinstance(inner, ast.Call)
                and dotted_name(inner.func) == "object.__setattr__"
                and len(inner.args) == 3
                and isinstance(inner.args[1], ast.Constant)
                and inner.args[1].value not in fields
            ):
                memos.append((inner.lineno, str(inner.args[1].value)))
    return memos


class CopyUnsafeMemoRule(FileRule):
    """M701: an instance memo on a value dataclass must be dropped by copies."""

    id = "M701"
    name = "copy-unsafe-memo"
    rationale = (
        "a cached_property (or any attribute stored beside the fields) on a "
        "core/bft/recovery dataclass survives copy/deepcopy/pickle unless the "
        f"class derives from {_COPY_SAFE_BASE}; tampering is modelled on deep "
        "copies, so a surviving digest memo vouches for fields it never saw"
    )

    def applies_to(self, path: str) -> bool:
        return any(package in path for package in _VALUE_PACKAGES)

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.nodes:
            if not (isinstance(node, ast.ClassDef) and is_dataclass(node)):
                continue
            if any(dotted_name(base).endswith(_COPY_SAFE_BASE) for base in node.bases):
                continue
            for line, name in _instance_memos(node):
                yield self.finding(
                    file,
                    line,
                    f"{node.name}.{name} is memoised on the instance but {node.name} "
                    f"does not derive from {_COPY_SAFE_BASE}: a copy would keep the "
                    "memo of the object it was copied from",
                )
