"""K-rules: configuration surface (cross-file).

A config field nothing reads is a knob wired to nothing: setting it changes
no behaviour, yet it widens the space tests, sweeps and serialised plans
believe they must cover.  The declaration lives in ``common/config.py`` and
the reads everywhere else, so only a :class:`ProjectRule` can prove it.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence, Set

from repro.lint.engine import ProjectRule, SourceFile, is_dataclass
from repro.lint.findings import Finding

_CONFIG_MODULE = "common/config.py"


def _loaded_attributes(tree: ast.AST) -> Set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


class DeadConfigKnobRule(ProjectRule):
    """K601: every config dataclass field is read outside the config module."""

    id = "K601"
    name = "dead-config-knob"
    rationale = (
        "a config field no module outside common/config.py reads is a knob "
        "wired to nothing, yet tests, sweeps and serialised plans must still "
        "cover it"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        config_files = [file for file in files if file.path.endswith(_CONFIG_MODULE)]
        read: Set[str] = set()
        for file in files:
            if file not in config_files:
                read |= _loaded_attributes(file.tree)
        # A field read only by a helper of the config module itself
        # (``cluster_size``, ``merkle_proof_cost_ms``) is live when that
        # helper is read outside; ``validate`` proves nothing — checking a
        # value is not using it.
        helpers = [
            node
            for file in config_files
            for node in ast.walk(file.tree)
            if isinstance(node, ast.FunctionDef) and node.name != "validate"
        ]
        grew = True
        while grew:
            grew = False
            for helper in helpers:
                loaded = _loaded_attributes(helper)
                if helper.name in read and not loaded <= read:
                    read |= loaded
                    grew = True
        for file in config_files:
            for node in ast.walk(file.tree):
                if not (isinstance(node, ast.ClassDef) and is_dataclass(node)):
                    continue
                for statement in node.body:
                    if (
                        isinstance(statement, ast.AnnAssign)
                        and isinstance(statement.target, ast.Name)
                        and statement.target.id not in read
                    ):
                        yield self.finding(
                            file,
                            statement.lineno,
                            f"config field {node.name}.{statement.target.id} is "
                            f"read by no module outside {_CONFIG_MODULE}: delete "
                            "the knob or wire it up",
                        )
