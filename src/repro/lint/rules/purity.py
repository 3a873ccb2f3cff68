"""S-rules: simulation purity.

Every node in ``simnet``/``bft``/``core`` lives inside the single-threaded
discrete-event loop: its only legitimate effects are messages, timers and
in-memory state.  Filesystem, subprocess, threading or blocking-I/O access
from event handlers would couple simulated time to host behaviour (and break
the determinism the chaos engine depends on).  Real I/O belongs in the
bench/CLI/obs-export layers.  The cyclic collector's policy has one owner,
the run loop in ``simnet/simulator.py``; no other simulation module imports
``gc``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileRule, SourceFile, call_name
from repro.lint.findings import Finding

_SIM_PACKAGES = ("repro/simnet/", "repro/bft/", "repro/core/")


def _in_sim_layer(path: str) -> bool:
    return any(package in path for package in _SIM_PACKAGES)


class SimFilesystemRule(FileRule):
    """S201: filesystem/subprocess/threading access in the simulation layer."""

    id = "S201"
    name = "sim-filesystem"
    rationale = (
        "simnet/bft/core handlers run inside the deterministic event loop; "
        "file, process or thread effects belong in bench/CLI layers, never "
        "in protocol code, and only the run loop sets the collector policy"
    )

    _FORBIDDEN_IMPORTS = {
        "subprocess",
        "threading",
        "multiprocessing",
        "socket",
        "shutil",
        "tempfile",
        "asyncio",
    }
    #: The one simulation module that may import ``gc``: its run loop sets
    #: the collector policy every run shares.
    _GC_OWNER = "repro/simnet/simulator.py"
    _FORBIDDEN_CALLS = {
        "os.remove",
        "os.unlink",
        "os.makedirs",
        "os.mkdir",
        "os.rename",
        "os.replace",
        "os.open",
        "os.fdopen",
        "os.system",
        "os.popen",
    }
    _FORBIDDEN_METHODS = {"write_text", "write_bytes", "read_text", "read_bytes"}

    def applies_to(self, path: str) -> bool:
        return _in_sim_layer(path)

    def _gc_finding(self, file: SourceFile, node: ast.stmt) -> Finding:
        return self.finding(
            file,
            node.lineno,
            f"gc imported outside {self._GC_OWNER}; the run loop owns the "
            f"collector policy",
        )

    def check(self, file: SourceFile) -> Iterator[Finding]:
        gc_owner = file.path.endswith(self._GC_OWNER)
        for node in file.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self._FORBIDDEN_IMPORTS:
                        yield self.finding(
                            file,
                            node.lineno,
                            f"import of {alias.name} in the simulation layer; "
                            f"process/thread/socket effects are not simulatable",
                        )
                    elif root == "gc" and not gc_owner:
                        yield self._gc_finding(file, node)
            elif isinstance(node, ast.ImportFrom):
                root = (node.module or "").split(".")[0]
                if root in self._FORBIDDEN_IMPORTS:
                    yield self.finding(
                        file,
                        node.lineno,
                        f"import from {node.module} in the simulation layer",
                    )
                elif root == "gc" and not gc_owner:
                    yield self._gc_finding(file, node)
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name == "open":
                    yield self.finding(
                        file,
                        node.lineno,
                        "open() in the simulation layer; files belong to the "
                        "bench/CLI/export layers",
                    )
                elif name in self._FORBIDDEN_CALLS:
                    yield self.finding(
                        file,
                        node.lineno,
                        f"{name}() touches the filesystem from simulation code",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._FORBIDDEN_METHODS
                ):
                    yield self.finding(
                        file,
                        node.lineno,
                        f".{node.func.attr}() file access from simulation code",
                    )


class SimBlockingRule(FileRule):
    """S202: blocking waits in simulation code."""

    id = "S202"
    name = "sim-blocking"
    rationale = (
        "time.sleep/select/input block the host thread instead of advancing "
        "simulated time; use Sleep()/schedule() so waits are events"
    )

    def applies_to(self, path: str) -> bool:
        return _in_sim_layer(path) or "repro/workload" in path or "repro/edge" in path

    def check(self, file: SourceFile) -> Iterator[Finding]:
        for node in file.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name == "time.sleep" or name.endswith(".time.sleep"):
                yield self.finding(
                    file,
                    node.lineno,
                    "time.sleep() blocks the host thread; yield Sleep(delay_ms) "
                    "or use schedule() to advance simulated time",
                )
            elif name in ("input",) or name.startswith("select."):
                yield self.finding(
                    file,
                    node.lineno,
                    f"{name}() blocks the event loop from simulation code",
                )
