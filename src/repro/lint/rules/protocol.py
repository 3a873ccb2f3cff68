"""P-rules: protocol safety (cross-file).

These rules know the repo's protocol architecture: message dataclasses live
in ``messages.py`` modules and derive from :class:`repro.simnet.messages.
Message`; nodes dispatch by registering handlers (``register_handler``)
with method-resolution-order fallback; certified payloads (headers, vote
certificates) must be verified before their fields are believed; and every
node-to-node send goes through ``SimNode.send``/``broadcast`` so the
reliable-transport layer covers it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.lint.engine import ProjectRule, FileRule, SourceFile, call_name, dotted_name
from repro.lint.findings import Finding


class MessageLifecycleRule(ProjectRule):
    """P301: every Message subclass is constructed and dispatched somewhere."""

    id = "P301"
    name = "message-lifecycle"
    rationale = (
        "a message class that is never constructed is dead protocol surface; "
        "one that is never dispatched (no register_handler / isinstance for "
        "it or a base class) is refused by on_unhandled at runtime"
    )

    _ROOTS = {"Message"}

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        # Class hierarchy over the whole file set, by simple name.
        bases_by_class: Dict[str, List[str]] = {}
        message_defs: List[Tuple[SourceFile, ast.ClassDef]] = []
        for file in files:
            in_messages_module = file.path.endswith("/messages.py") or file.path.endswith(
                "messages.py"
            )
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.ClassDef):
                    continue
                base_names = [dotted_name(base).split(".")[-1] for base in node.bases]
                bases_by_class.setdefault(node.name, base_names)
                if in_messages_module:
                    message_defs.append((file, node))

        def derives_from_message(name: str, seen: Set[str]) -> bool:
            if name in self._ROOTS:
                return True
            if name in seen:
                return False
            seen.add(name)
            return any(
                derives_from_message(base, seen)
                for base in bases_by_class.get(name, [])
            )

        # Classes that other scanned classes derive from are abstract bases:
        # they are constructed and dispatched through their subclasses.
        has_subclass: Set[str] = {
            base for bases in bases_by_class.values() for base in bases
        }

        constructed: Set[str] = set()
        dispatched: Set[str] = set()
        for file in files:
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node).split(".")[-1]
                if name == "register_handler" and node.args:
                    target = node.args[0]
                    for element in (
                        target.elts if isinstance(target, ast.Tuple) else [target]
                    ):
                        dispatched.add(dotted_name(element).split(".")[-1])
                elif name == "isinstance" and len(node.args) == 2:
                    target = node.args[1]
                    for element in (
                        target.elts if isinstance(target, ast.Tuple) else [target]
                    ):
                        dispatched.add(dotted_name(element).split(".")[-1])
                elif name:
                    constructed.add(name)

        def ancestry(name: str) -> Iterator[str]:
            stack, seen = [name], set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                yield current
                stack.extend(bases_by_class.get(current, []))

        for file, node in message_defs:
            if node.name in self._ROOTS or node.name in has_subclass:
                continue
            if not derives_from_message(node.name, set()):
                continue
            if node.name not in constructed:
                yield self.finding(
                    file,
                    node.lineno,
                    f"message class {node.name} is never constructed anywhere "
                    f"in the scanned tree (dead protocol surface)",
                )
            if not any(base in dispatched for base in ancestry(node.name)):
                yield self.finding(
                    file,
                    node.lineno,
                    f"message class {node.name} is never dispatched: no "
                    f"register_handler or isinstance mentions it or a base "
                    f"class, so every receiver refuses it",
                )


class HandlerTargetRule(ProjectRule):
    """P304: every register_handler target must exist on the class."""

    id = "P304"
    name = "handler-target-defined"
    rationale = (
        "register_handler(Type, self._on_x) captures the bound method at "
        "registration time; if _on_x is not defined on the class (or an "
        "ancestor) the node crashes with AttributeError during __init__ — "
        "or worse, a typo'd name silently registers the wrong handler "
        "after a rename"
    )

    def check_project(self, files: Sequence[SourceFile]) -> Iterator[Finding]:
        # Per-class view over the whole file set: methods defined via def,
        # attributes assigned to self.<name> anywhere in the body, and base
        # class simple names for MRO-style lookup across files.
        methods_by_class: Dict[str, Set[str]] = {}
        bases_by_class: Dict[str, List[str]] = {}
        registrations: List[Tuple[SourceFile, str, ast.Call, str]] = []

        for file in files:
            for klass in ast.walk(file.tree):
                if not isinstance(klass, ast.ClassDef):
                    continue
                # Same-named classes across files (common in test corpora)
                # merge: membership and bases are unioned, which errs toward
                # leniency instead of false positives.
                bases_by_class.setdefault(klass.name, []).extend(
                    dotted_name(base).split(".")[-1] for base in klass.bases
                )
                members = methods_by_class.setdefault(klass.name, set())
                for node in ast.walk(klass):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        members.add(node.name)
                    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                members.add(target.attr)
                            elif isinstance(target, ast.Name):
                                members.add(target.id)  # class attribute
                    elif (
                        isinstance(node, ast.Call)
                        and call_name(node).split(".")[-1] == "register_handler"
                        and len(node.args) >= 2
                    ):
                        handler = node.args[1]
                        if (
                            isinstance(handler, ast.Attribute)
                            and isinstance(handler.value, ast.Name)
                            and handler.value.id == "self"
                        ):
                            registrations.append(
                                (file, klass.name, node, handler.attr)
                            )

        def resolves(klass: str, attr: str) -> bool:
            stack, seen = [klass], set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                if attr in methods_by_class.get(current, set()):
                    return True
                if current not in bases_by_class:
                    # Base outside the scanned tree: give it the benefit of
                    # the doubt rather than flag unknowable inheritance.
                    return True
                stack.extend(bases_by_class[current])
            return False

        for file, klass, node, attr in registrations:
            if not resolves(klass, attr):
                yield self.finding(
                    file,
                    node.lineno,
                    f"register_handler target self.{attr} is not defined on "
                    f"{klass} or any scanned ancestor (AttributeError at "
                    f"node construction)",
                )


class VerifyBeforeReadRule(FileRule):
    """P302: handlers reading signed-payload fields must verify first."""

    id = "P302"
    name = "verify-before-read"
    rationale = (
        "a handler that reads fields of a certified payload (header, "
        "certificate, commit record) without calling a verify*/validate* "
        "helper in the same body trusts unauthenticated bytes from the wire"
    )

    #: Attributes that carry signed/certified payloads in this protocol.
    _SIGNED_ATTRS = {"header", "certificate", "view_certificate"}

    def applies_to(self, path: str) -> bool:
        return any(
            package in path
            for package in ("repro/core/", "repro/bft/", "repro/edge/")
        )

    def _is_handler(self, node: ast.AST) -> bool:
        return isinstance(node, ast.FunctionDef) and (
            node.name.startswith("on_") or node.name.startswith("_on_")
        )

    def _verifies(self, function: ast.FunctionDef) -> bool:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node).split(".")[-1]
            if name.startswith(("verify", "validate", "_verify", "_validate")):
                return True
        return False

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for function in [n for n in ast.walk(file.tree) if self._is_handler(n)]:
            if self._verifies(function):
                continue
            for node in ast.walk(function):
                # Reading a *field of* a signed payload: e.g. msg.header.cd_vector
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr in self._SIGNED_ATTRS
                ):
                    yield self.finding(
                        file,
                        node.lineno,
                        f"handler {function.name}() reads "
                        f".{node.value.attr}.{node.attr} without any "
                        f"verify*/validate* call in its body",
                    )
                    break  # one finding per handler is enough


class TransportBypassRule(FileRule):
    """P303: direct Network.send calls bypass the reliable transport."""

    id = "P303"
    name = "transport-bypass"
    rationale = (
        "SimNode.send/broadcast route replica-to-replica traffic through "
        "ReliableTransport (acks, retransmission, dedup); calling "
        "network.send directly silently loses those guarantees"
    )

    _BYPASS_SUFFIXES = ("network.send", "network.broadcast", "network.deliver")

    def applies_to(self, path: str) -> bool:
        # The transport layer itself and the fault injector own the network.
        return "repro/simnet/" not in path

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if any(
                name == suffix or name.endswith("." + suffix)
                for suffix in self._BYPASS_SUFFIXES
            ):
                yield self.finding(
                    file,
                    node.lineno,
                    f"direct {name}() call bypasses the reliable transport; "
                    f"send through SimNode.send/broadcast",
                )
