"""D-rules: determinism hazards.

The simulation's verification story rests on "same seed, same bytes": chaos
fingerprints, trace digests and shrunk repro artifacts are all compared
across runs and across processes.  Anything that draws from the process
RNG, the host clock or hash-randomised iteration order breaks that silently
— these rules prove those hazards absent from the AST.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set

from repro.lint.engine import FileRule, SourceFile, call_name, dotted_name, functions_in
from repro.lint.findings import Finding


def _in_repro_lint(path: str) -> bool:
    return "repro/lint" in path


class UnseededRandomRule(FileRule):
    """D101: module-level ``random.*`` calls draw from the process RNG."""

    id = "D101"
    name = "unseeded-random"
    rationale = (
        "module-level random.* calls (and argless random.Random()) draw from "
        "the process-global RNG, so two runs of the same seed diverge; all "
        "randomness must flow through seeded random.Random streams"
    )

    _MODULE_FUNCS = {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
    }

    def applies_to(self, path: str) -> bool:
        return not _in_repro_lint(path)

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in {f"random.{func}" for func in self._MODULE_FUNCS}:
                yield self.finding(
                    file,
                    node.lineno,
                    f"call to {name}() uses the process-global RNG; "
                    f"draw from a seeded random.Random stream instead",
                )
            elif name == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    file,
                    node.lineno,
                    "random.Random() without a seed argument is seeded from "
                    "OS entropy; pass an explicit seed",
                )


class WallClockRule(FileRule):
    """D102: wall-clock and entropy reads inside the simulated system."""

    id = "D102"
    name = "wall-clock"
    rationale = (
        "time.time/datetime.now/os.urandom/uuid.uuid4 read host state that "
        "differs between runs; simulated components must use env.now and "
        "seeded streams (bench/CLI timing layers are out of scope)"
    )

    _FORBIDDEN_SUFFIXES = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }

    def applies_to(self, path: str) -> bool:
        return not _in_repro_lint(path) and "repro/bench" not in path

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if not name:
                continue
            if name.startswith("secrets."):
                yield self.finding(
                    file,
                    node.lineno,
                    f"call to {name}() reads OS entropy; use a seeded stream",
                )
                continue
            for suffix in self._FORBIDDEN_SUFFIXES:
                if name == suffix or name.endswith("." + suffix):
                    yield self.finding(
                        file,
                        node.lineno,
                        f"call to {name}() reads the host clock/entropy; "
                        f"simulated time is env.now, randomness is seeded",
                    )
                    break


class BareSetIterationRule(FileRule):
    """D103: iterating or formatting a bare set leaks PYTHONHASHSEED."""

    id = "D103"
    name = "set-iteration"
    rationale = (
        "iteration order of str-keyed sets is randomised per process "
        "(PYTHONHASHSEED); anything ordered by it — send order, returned "
        "lists, dict builds, and the text of a set put through an f-string, "
        "str() or repr() (the atomic-visibility message hashed into chaos "
        "fingerprints) — diverges across processes under the same seed. "
        "Wrap in sorted(...) or keep draw order (the PR 6 key-chooser bug)"
    )

    _SET_BUILTINS = {"set", "frozenset"}
    _SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
    _SET_TYPES = {"Set", "FrozenSet", "set", "frozenset"}
    _MAPPING_TYPES = {"Dict", "dict", "DefaultDict", "defaultdict", "Mapping", "MutableMapping"}
    #: Mapping methods that hand back one of the mapping's values.
    _VALUE_LOOKUPS = {"get", "setdefault", "pop"}
    #: str()/repr() of a set print it in iteration order, like an f-string.
    _ITERATING_CALLS = {"list", "tuple", "iter", "enumerate", "str", "repr"}

    def applies_to(self, path: str) -> bool:
        return not _in_repro_lint(path) and "repro/bench" not in path

    # -- set-expression detection -------------------------------------------

    def _is_set_expr(self, node: ast.AST, set_vars: Set[str], set_maps: Set[str]) -> bool:
        if isinstance(node, ast.Set):
            return True
        if isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_vars
        if isinstance(node, ast.Subscript):
            # ``self.owners[key]`` of a ``Dict[..., Set[...]]`` attribute.
            return dotted_name(node.value) in set_maps
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in self._SET_BUILTINS:
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in self._SET_METHODS:
                # x.union(y) etc. return sets whatever x is; accept the rare
                # false positive (str.union does not exist) for the coverage.
                return True
            if isinstance(node.func, ast.Attribute) and node.func.attr in self._VALUE_LOOKUPS:
                return dotted_name(node.func.value) in set_maps
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_vars, set_maps) or self._is_set_expr(
                node.right, set_vars, set_maps
            )
        return False

    def _set_valued_maps(self, nodes: Iterable[ast.AST]) -> Set[str]:
        """Names (``x``, ``self.x``) annotated as a mapping whose values are sets."""
        names: Set[str] = set()
        for node in nodes:
            if not isinstance(node, ast.AnnAssign):
                continue
            annotation = node.annotation
            if not isinstance(annotation, ast.Subscript) or not isinstance(annotation.slice, ast.Tuple):
                continue
            value_type = annotation.slice.elts[-1]
            if isinstance(value_type, ast.Subscript):
                value_type = value_type.value
            if (
                dotted_name(annotation.value).split(".")[-1] in self._MAPPING_TYPES
                and dotted_name(value_type).split(".")[-1] in self._SET_TYPES
            ):
                names.add(dotted_name(node.target))
        names.discard("")  # a target that is no name chain
        return names

    def _set_typed_locals(self, function: ast.AST, set_maps: Set[str]) -> Set[str]:
        """Names assigned a set expression anywhere in ``function`` (flow-free)."""
        names: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value, names, set_maps):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                annotation = dotted_name(node.annotation) if node.annotation else ""
                if (
                    self._is_set_expr(node.value, names, set_maps)
                    or annotation.split("[")[0] in self._SET_TYPES
                ):
                    if isinstance(node.target, ast.Name):
                        names.add(node.target.id)
        return names

    # -- iteration contexts --------------------------------------------------

    def _iteration_sites(self, scope: ast.AST):
        for node in ast.walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                yield node.iter, node.lineno, "for loop"
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield generator.iter, node.lineno, "comprehension"
            elif isinstance(node, ast.Call) and call_name(node) in self._ITERATING_CALLS:
                if node.args:
                    yield node.args[0], node.lineno, f"{call_name(node)}()"
            elif isinstance(node, ast.FormattedValue):
                yield node.value, node.lineno, "f-string"
            elif isinstance(node, ast.Starred):
                yield node.value, getattr(node, "lineno", 0), "unpacking"

    def check(self, file: SourceFile) -> Iterator[Finding]:
        scopes: List[ast.AST] = list(functions_in(file.nodes))
        set_maps = self._set_valued_maps(file.nodes)
        # Module level too (rare, but set literals at import time happen).
        seen = set()
        for scope in scopes + [file.tree]:
            set_vars = self._set_typed_locals(scope, set_maps) if scope is not file.tree else set()
            for iterable, line, context in self._iteration_sites(scope):
                if scope is file.tree and any(
                    # Module pass: skip sites inside functions (already done).
                    line >= fn.lineno and line <= (fn.end_lineno or fn.lineno)
                    for fn in scopes
                ):
                    continue
                if not self._is_set_expr(iterable, set_vars, set_maps):
                    continue
                key = (line, context)
                if key in seen:
                    continue
                seen.add(key)
                yield self.finding(
                    file,
                    line,
                    f"{context} iterates a bare set/frozenset value; iteration "
                    f"order leaks PYTHONHASHSEED — wrap in sorted(...) or keep "
                    f"an explicit order",
                )


class HashOrderingRule(FileRule):
    """D104: builtin ``hash()`` feeding comparisons or ordering."""

    id = "D104"
    name = "hash-ordering"
    rationale = (
        "builtin hash() of strings/bytes is salted per process; using it for "
        "ordering, bucketing or identity diverges across processes — use "
        "hashlib digests (as repro.storage.partitioner does)"
    )

    def applies_to(self, path: str) -> bool:
        return not _in_repro_lint(path)

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.nodes:
            if isinstance(node, ast.Call) and call_name(node) == "hash":
                yield self.finding(
                    file,
                    node.lineno,
                    "builtin hash() is salted per process (PYTHONHASHSEED); "
                    "use a hashlib digest for stable hashing",
                )
            elif isinstance(node, ast.keyword) and node.arg == "key":
                if isinstance(node.value, ast.Name) and node.value.id == "hash":
                    yield self.finding(
                        file,
                        node.value.lineno,
                        "key=hash sorts by the process-salted builtin hash",
                    )


class MutableDefaultRule(FileRule):
    """D105: mutable default arguments are shared across calls."""

    id = "D105"
    name = "mutable-default"
    rationale = (
        "a list/dict/set default is created once and shared by every call; "
        "mutation bleeds state across transactions and replicas — default to "
        "None or use dataclasses.field(default_factory=...)"
    )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for function in functions_in(file.nodes):
            defaults = list(function.args.defaults) + [
                default for default in function.args.kw_defaults if default is not None
            ]
            for default in defaults:
                mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and call_name(default) in ("list", "dict", "set", "bytearray")
                )
                if mutable:
                    yield self.finding(
                        file,
                        default.lineno,
                        f"function {function.name}() has a mutable default "
                        f"argument; it is shared across calls",
                    )
