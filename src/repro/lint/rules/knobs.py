"""K-rules: configuration surface (cross-file).

A config field nothing reads is a knob wired to nothing: setting it changes
no behaviour, yet it widens the space tests, sweeps and serialised plans
believe they must cover.  A field nothing ever *sets* is the mirror image:
it has one value in use anywhere, so it is a constant that the same tests,
sweeps and plans still treat as a dimension.  The declaration lives in
``common/config.py`` and the reads and writes everywhere else, so only a
:class:`ProjectRule` can prove either.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import (
    ProjectRule,
    SourceFile,
    call_name,
    collect_files,
    functions_in,
    is_dataclass,
)
from repro.lint.findings import Finding

_CONFIG_MODULE = "common/config.py"

#: Calls that copy a config object with some fields changed; which class the
#: keywords belong to is not visible in the AST, so they count for any.
_COPY_CALLS = frozenset({"replace", "with_updates", "with_tracing"})


def _loaded_attributes(tree: ast.AST) -> Set[str]:
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _callee(node: ast.Call) -> str:
    return call_name(node).split(".")[-1]


def _keywords_passed(
    trees: Sequence[ast.AST], config_classes: Set[str]
) -> Set[Tuple[Optional[str], str]]:
    """``(class or None, field)`` for every keyword given to a config call.

    ``None`` where the class is not visible: a copy call, or a *forwarder* —
    a function (matched by bare name) that splats ``**kwargs`` into a config
    call, such as ``section51_config``.
    """
    splats: Dict[str, Set[str]] = {}  # function -> callees it ``**``-splats into
    for tree in trees:
        for function in functions_in(tree):
            splats.setdefault(function.name, set()).update(
                _callee(call)
                for call in ast.walk(function)
                if isinstance(call, ast.Call)
                and any(keyword.arg is None for keyword in call.keywords)
            )
    forwarders = set(_COPY_CALLS)
    grew = True
    while grew:
        takers = config_classes | forwarders
        found = {name for name, callees in splats.items() if callees & takers}
        grew = not found <= forwarders
        forwarders |= found
    return {
        (callee if callee in config_classes else None, keyword.arg)
        for tree in trees
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        for callee in [_callee(call)]
        if callee in config_classes or callee in forwarders
        for keyword in call.keywords
        if keyword.arg
    }


class DeadConfigKnobRule(ProjectRule):
    """K601: every config dataclass field is read, and set, outside the config module."""

    id = "K601"
    name = "dead-config-knob"
    rationale = (
        "a config field no module outside common/config.py reads is a knob "
        "wired to nothing, and one no call ever sets has a single value in "
        "use — a constant — yet tests, sweeps and serialised plans must "
        "still cover both"
    )

    #: Evidence of use swept outside the linted tree, relative to the working
    #: directory: an example or benchmark workload that sets a field is a
    #: second value in use.  A unit test is not, here or in the linted tree
    #: (``test_*.py``): one that shrinks a ring or a timer reaches the same
    #: path at the shipped value, simulated time being free.
    external_dirs = ("examples", "perfbench")
    #: Options only a test sets, kept all the same: ``crypto_backend`` is a
    #: capability (a deployment on real RSA signatures), not an estimate.
    test_only = frozenset({"crypto_backend"})

    def _setter_trees(self, scanned: Sequence[SourceFile]) -> List[ast.AST]:
        roots = [root for root in self.external_dirs if os.path.isdir(root)]
        by_path = {file.path: file for file in [*collect_files(roots), *scanned]}
        return [
            file.tree
            for path, file in by_path.items()
            if not os.path.basename(path).startswith("test_")
        ]

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        config_files = [file for file in files if file.path.endswith(_CONFIG_MODULE)]
        others = [file for file in files if file not in config_files]
        read: Set[str] = set()
        for file in others:
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
        config_classes = [
            (file, node)
            for file in config_files
            for node in ast.walk(file.tree)
            if isinstance(node, ast.ClassDef) and is_dataclass(node)
        ]
        class_names = {node.name for _file, node in config_classes}
        passed = _keywords_passed(
            self._setter_trees(others)
            # Like reads: what a config helper sets is set when the helper
            # itself is used outside (``with_tracing`` sets ``obs``).
            + [helper for helper in helpers if helper.name in read],
            class_names,
        )
        for file, node in config_classes:
            for statement in node.body:
                if not (
                    isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                ):
                    continue
                field = statement.target.id
                if field not in read:
                    yield self.finding(
                        file,
                        statement.lineno,
                        f"config field {node.name}.{field} is "
                        f"read by no module outside {_CONFIG_MODULE}: delete "
                        "the knob or wire it up",
                    )
                elif (
                    "ClassVar" not in ast.unparse(statement.annotation)
                    and (node.name, field) not in passed
                    and (None, field) not in passed
                    and field not in self.test_only
                ):
                    yield self.finding(
                        file,
                        statement.lineno,
                        f"config field {node.name}.{field} is set by no call "
                        f"outside {_CONFIG_MODULE} (nor under "
                        f"{'/, '.join(self.external_dirs)}/): one value in use "
                        "is a constant, not an option",
                    )
