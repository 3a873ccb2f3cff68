"""Traced run: wrap the program's entry points from outside, keep spans in memory.

``ENTRY_POINTS`` is the one table of what is wrapped.  For the traced pass
only, :class:`Recorder` replaces each entry with a wrapper timed by
``perf_counter_ns`` and restores the originals on exit; nothing under
``src/`` is edited.  Coarse entries (one per dispatched message, timer,
process step, store build) are kept as *spans* ``(id, parent, message, name,
stat, start_ns, end_ns)``; entries called hundreds of thousands of times per
run (``sha256``, ``stable_encode``, ``partition_of`` ...) are only
aggregated as ``(calls, total_ns)`` under the name of their enclosing span.

Self time is exclusive: a call's duration minus the part covered by wrapped
calls made from inside it.  Every nanosecond of the traced repetition
therefore lands in exactly one stat, or in the root's own self time
(``trace.unattributed_share``), and the stats sum to the traced wall time.
The wrappers' own cost is inside the enclosing call's self time; the traced
pass is for *where* time goes, the untraced pass for *how much*
(``trace.overhead_ratio`` is the gap between the two).
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple, Union

ROOT = "repetition"

StatName = Union[str, Callable[["Recorder", tuple], str]]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``module:qualname`` charged to ``stat``."""

    stat: StatName
    module: str
    qualname: str
    #: Keep each call as a span (coarse entries only).
    span: bool = False
    #: The call handles one delivered message, timer or process step: spans
    #: below it share its message id.
    message: bool = False
    #: ``after(recorder, args, result)``: count work at the boundary.
    after: Optional[Callable[["Recorder", tuple, object], None]] = None
    #: Span name from the call's arguments (default: the qualname).
    name: Optional[Callable[[tuple], str]] = None


# -- stat resolvers and boundary counters -----------------------------------


def _node_stat(node) -> str:
    kind = type(node).__name__
    if kind == "PartitionReplica":
        return "core.replica"
    if kind == "EdgeProxy":
        return "edge.proxy"
    return "core.client"


def _dispatch_stat(rec: "Recorder", args: tuple) -> str:
    node = args[0]
    pending = node.env.simulator.pending_events
    if pending > rec.counters.get("simnet.peak_pending_events", 0):
        rec.counters["simnet.peak_pending_events"] = pending
    return _node_stat(node)


def _advance_stat(rec: "Recorder", args: tuple) -> str:
    return _node_stat(args[0].node)


def _run_plan_stat(rec: "Recorder", args: tuple) -> str:
    rec.scratch["runs_in_plan"] = 0
    return "chaos.run"


def _chaos_run_stat(rec: "Recorder", args: tuple) -> str:
    # ``run_plan`` calls ``_run`` for the plan itself and then, when the plan
    # has faults, once more for its fault-free twin.
    rec.scratch["runs_in_plan"] = rec.scratch.get("runs_in_plan", 0) + 1
    return "chaos.twin" if rec.scratch["runs_in_plan"] == 2 else "chaos.run"


def _count_events(rec: "Recorder", args: tuple, result: object) -> None:
    rec.count("simnet.events", result)
    rec.simulators[id(args[0])] = args[0]


def _count_encoded(rec: "Recorder", args: tuple, result: object) -> None:
    rec.count("hashing.encode_bytes", len(result))


def _count_lookup(rec: "Recorder", args: tuple, result: object) -> None:
    rec.count("signatures.cache_misses" if result is None else "signatures.cache_hits", 1)


def _count_tree_at(rec: "Recorder", args: tuple, result: object) -> None:
    # Only snapshot requests served by a replica; the chaos oracles also
    # probe ``tree_at`` after the run, which SystemCounters do not count.
    if not rec.enclosing_span().startswith("dispatch:"):
        return
    rec.count("merkle.tree_at", 1)
    if result is not None:
        rec.count("merkle.tree_at_archived", 1)


def _count_batch(rec: "Recorder", args: tuple, result: object) -> None:
    size = getattr(args[1], "size", None)
    rec.count("bft.batch_txns", size() if callable(size) else 0)


def _keep_system(rec: "Recorder", args: tuple, result: object) -> None:
    rec.systems.append(args[0])


def _entries(stat: StatName, module: str, *qualnames: str, **flags) -> Tuple[Entry, ...]:
    return tuple(Entry(stat, module, qualname, **flags) for qualname in qualnames)


_TIMER = dict(span=True, message=True)

ENTRY_POINTS: Tuple[Entry, ...] = (
    # simnet: scheduling, transport, reliable channel
    Entry("simnet.sched", "repro.simnet.simulator", "Simulator.run", span=True, after=_count_events),
    Entry("simnet.sched", "repro.simnet.simulator", "Simulator.schedule_at"),
    Entry("simnet.send", "repro.simnet.network", "Network.send"),
    Entry("simnet.net", "repro.simnet.network", "Network.send_unfiltered"),
    *_entries("simnet.net", "repro.simnet.latency", "EdgeLatencyModel.delay_ms", "FixedLatencyModel.delay_ms"),
    *_entries("simnet.net", "repro.simnet.node", "SimNode.receive", "SimNode.send", "SimNode.broadcast"),
    *_entries("simnet.net", "repro.simnet.faults", "FaultInjector.crash", "FaultInjector.restart"),
    *_entries("simnet.reliable", "repro.simnet.reliable", "ReliableTransport.send", "ReliableTransport.on_receive"),
    *_entries(
        "simnet.reliable", "repro.simnet.reliable",
        "ReliableTransport._on_retransmit_timer", "ReliableTransport._send_ack", **_TIMER,
    ),
    # crypto.hashing (imported by name all over src/: every importer is patched)
    Entry("hashing.encode", "repro.crypto.hashing", "stable_encode", after=_count_encoded),
    *_entries("hashing.sha256", "repro.crypto.hashing", "sha256", "sha256_hex", "combine_digests"),
    # crypto.signatures
    *_entries("signatures.sign", "repro.crypto.signatures", "HmacSigner.sign", "RsaSigner.sign"),
    Entry("signatures.verify", "repro.crypto.signatures", "KeyRegistry.verify"),
    Entry("signatures.quorum", "repro.crypto.signatures", "KeyRegistry.verify_quorum"),
    Entry("signatures.cache", "repro.crypto.signatures", "VerifyCache.lookup", after=_count_lookup),
    # crypto.merkle + crypto.archive
    Entry("merkle.build", "repro.crypto.merkle", "MerkleTree.__init__", span=True),
    Entry("merkle.apply", "repro.crypto.merkle", "MerkleStore.apply"),
    Entry("merkle.preview", "repro.crypto.merkle", "MerkleStore.preview_root"),
    Entry("merkle.prove", "repro.crypto.merkle", "MerkleTree.prove"),
    Entry("merkle.prove_at", "repro.crypto.merkle", "MerkleStore.tree_at", after=_count_tree_at),
    Entry("merkle.prove_at", "repro.crypto.merkle", "MerkleStore.prove_at"),
    Entry("merkle.prove_at", "repro.crypto.archive", "HistoricalTreeView.prove"),
    Entry("merkle.verify_proof", "repro.crypto.merkle", "verify_proof"),
    # storage
    Entry("mvstore.init", "repro.storage.mvstore", "MultiVersionStore.__init__", span=True),
    Entry("mvstore.apply", "repro.storage.mvstore", "MultiVersionStore.apply"),
    *_entries(
        "mvstore.read", "repro.storage.mvstore",
        "MultiVersionStore.latest", "MultiVersionStore.get", "MultiVersionStore.version_of",
        "MultiVersionStore.as_of", "MultiVersionStore.snapshot_as_of",
    ),
    Entry("partitioner.partition_of", "repro.storage.partitioner", "HashPartitioner.partition_of"),
    # bft
    Entry("bft.propose", "repro.bft.engine", "PbftEngine.propose", after=_count_batch),
    Entry("bft.handle", "repro.bft.engine", "PbftEngine.handle"),
    Entry("bft.handle", "repro.bft.engine", "PbftEngine._on_rebroadcast_timer", **_TIMER),
    # core: protocol roles
    Entry("core.system_init", "repro.core.system", "TransEdgeSystem.__init__", span=True, after=_keep_system),
    Entry(
        _dispatch_stat, "repro.simnet.node", "SimNode._dispatch",
        name=lambda args: "dispatch:" + type(args[1]).__name__, **_TIMER,
    ),
    Entry(_advance_stat, "repro.simnet.proc", "Process._advance", **_TIMER),
    Entry("core.client", "repro.simnet.proc", "ProcessNode._finish_wait", **_TIMER),
    *_entries(
        "core.leader", "repro.core.leader",
        "LeaderRole.on_commit_request", "LeaderRole.on_participant_prepared",
        "LeaderRole.on_decision", "LeaderRole.nudge_two_pc", "LeaderRole.propose_genesis",
        "LeaderRole.on_batch_delivered", "LeaderRole.on_view_change",
        "LeaderRole.on_recovery_complete",
    ),
    Entry("core.two_pc_prepare", "repro.core.leader", "LeaderRole.on_coordinator_prepare"),
    *_entries("core.leader", "repro.core.leader", "LeaderRole._on_twopc_timer", "LeaderRole._on_seal_timer", **_TIMER),
    Entry("core.replica", "repro.core.replica", "ViewProgressMonitor._fire", **_TIMER),
    *_entries("core.batch_digest", "repro.core.batch", "Batch._content_digest", "Batch._digest"),
    Entry("core.occ", "repro.core.occ", "ConflictChecker.check"),
    # recovery
    *_entries(
        "recovery", "repro.recovery.checkpoint",
        "CheckpointManager.on_batch_delivered", "CheckpointManager.on_vote",
        "CheckpointManager.bootstrap", "CheckpointManager.adopt",
    ),
    Entry("recovery", "repro.recovery.snapshot", "SnapshotImage.capture"),
    *_entries("recovery", "repro.recovery.transfer", "RecoveryCoordinator.begin", "RecoveryCoordinator.on_reply"),
    Entry("recovery", "repro.recovery.transfer", "RecoveryCoordinator._broadcast_request", **_TIMER),
    *_entries(
        "recovery", "repro.core.replica",
        "PartitionReplica.reset_for_recovery", "PartitionReplica.begin_recovery",
        "PartitionReplica.install_snapshot", "PartitionReplica.apply_recovered_entry",
        "PartitionReplica._on_state_transfer_request",
    ),
    # obs: tracing, monitor, flight recorder
    *_entries("obs", "repro.obs.trace", "Tracer.begin_trace", "Tracer.span", "Tracer.add_span", "Tracer.finish"),
    *_entries("obs", "repro.obs.monitor", "Monitor.on_activity", "Monitor.on_span_closed", "Monitor.on_obs_event", "Monitor.flush"),
    Entry("obs", "repro.obs.hub", "Observability.event"),
    # verification + chaos
    Entry("verification.oracle", "repro.verification.oracles", "run_suite", span=True),
    *_entries("verification.oracle", "repro.verification.oracles", "PhaseLatencyAnomalyOracle.measure", "PhaseLatencyAnomalyOracle.check", span=True),
    *_entries("verification.oracle", "repro.verification.history", "ExecutionHistory.record_commit", "ExecutionHistory.record_read_only"),
    Entry(_run_plan_stat, "repro.chaos.runner", "run_plan", span=True),
    Entry(_chaos_run_stat, "repro.chaos.runner", "_run", span=True),
    Entry("chaos.plan", "repro.chaos.plan", "plan_from_seed", span=True),
    *_entries("chaos.plan", "repro.chaos.runner", "_segment_specs", "_schedule_faults", span=True),
)


# ---------------------------------------------------------------------------
# recorder
# ---------------------------------------------------------------------------

Span = Tuple[int, int, int, str, str, int, int]


class Recorder:
    """Installs the wrappers, accumulates stats and spans, restores originals."""

    def __init__(
        self,
        entries: Tuple[Entry, ...] = ENTRY_POINTS,
        clock: Callable[[], int] = perf_counter_ns,
    ) -> None:
        self._entries = entries
        self._clock = clock
        #: stat -> [calls, self_ns, total_ns]
        self.stats: Dict[str, List[int]] = {}
        #: (enclosing span name, stat) -> [calls, total_ns], aggregated entries only
        self.under: Dict[Tuple[str, str], List[int]] = {}
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.scratch: Dict[str, int] = {}
        self.systems: list = []
        self.simulators: Dict[int, object] = {}
        #: Open frames, innermost last: [child_ns, span name, span id, message id].
        self._stack: List[list] = []
        self._next_id = 0
        self._undo: List[Tuple[object, str, object]] = []
        self.root_ns = 0
        self.root_self_ns = 0

    def count(self, name: str, amount: object) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def enclosing_span(self) -> str:
        """Name of the innermost open span."""
        return self._stack[-1][1]

    # -- root span ----------------------------------------------------------

    def __enter__(self) -> "Recorder":
        self.install()
        self._stack.append([0, ROOT, 0, 0])
        self._root_start = self._clock()
        return self

    def __exit__(self, *exc_info) -> None:
        end = self._clock()
        frame = self._stack.pop()
        self.uninstall()
        self.root_ns = end - self._root_start
        self.root_self_ns = self.root_ns - frame[0]
        self.spans.append((0, -1, 0, ROOT, ROOT, self._root_start, end))

    # -- results ------------------------------------------------------------

    def calls(self, *stats: str) -> int:
        return sum(self.stats[stat][0] for stat in stats if stat in self.stats)

    def self_s(self, *stats: str) -> float:
        return sum(self.stats[stat][1] for stat in stats if stat in self.stats) / 1e9

    def total_s(self, *stats: str) -> float:
        return sum(self.stats[stat][2] for stat in stats if stat in self.stats) / 1e9

    def to_json(self) -> dict:
        return {
            "span_fields": ["id", "parent", "message", "name", "stat", "start_ns", "end_ns"],
            "spans": self.spans,
            "aggregated_under_span": [
                {"span": span, "stat": stat, "calls": calls, "total_ns": total}
                for (span, stat), (calls, total) in sorted(self.under.items())
            ],
            "stats": {
                stat: {"calls": calls, "self_ns": self_ns, "total_ns": total}
                for stat, (calls, self_ns, total) in sorted(self.stats.items())
            },
            "root_ns": self.root_ns,
            "root_self_ns": self.root_self_ns,
        }

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("wrappers already installed")
        try:
            for entry in self._entries:
                self._install_entry(entry)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def _replace(self, owner: object, attribute: str, original: object, new: object) -> None:
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, new)

    def _install_entry(self, entry: Entry) -> None:
        module = importlib.import_module(entry.module)
        owner_name, _, attribute = entry.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attribute]
            if isinstance(original, functools.cached_property):
                self._replace(original, "func", original.func, self._wrap(original.func, entry))
            elif isinstance(original, (staticmethod, classmethod)):
                wrapped = type(original)(self._wrap(original.__func__, entry))
                self._replace(owner, attribute, original, wrapped)
            else:
                self._replace(owner, attribute, original, self._wrap(original, entry))
            return
        # A module-level function: other modules hold their own reference
        # (``from repro.crypto.hashing import sha256``), so patch every one.
        original = getattr(module, attribute)
        wrapper = self._wrap(original, entry)
        package = entry.module.split(".")[0]
        for name, candidate in list(sys.modules.items()):
            if candidate is None or name.split(".")[0] != package:
                continue
            for alias, value in list(vars(candidate).items()):
                if value is original:
                    self._replace(candidate, alias, original, wrapper)

    # -- the wrapper --------------------------------------------------------

    def _stat(self, name: str) -> List[int]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0, 0]
        return stat

    def _wrap(self, fn: Callable, entry: Entry) -> Callable:
        stack = self._stack
        clock = self._clock
        after = entry.after
        if not entry.span:
            return self._wrap_aggregated(fn, entry)
        spans = self.spans
        label = entry.qualname
        name_of = entry.name
        resolve = entry.stat if callable(entry.stat) else None
        fixed = None if resolve else entry.stat

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if not stack:  # an object that outlived the traced repetition
                return fn(*args, **kwargs)
            stat_name = resolve(self, args) if resolve else fixed
            name = name_of(args) if name_of else label
            parent = stack[-1]
            self._next_id += 1
            span_id = self._next_id
            message_id = span_id if entry.message else parent[3]
            frame = [0, name, span_id, message_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat = self._stat(stat_name)
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
                spans.append((span_id, parent[2], message_id, name, stat_name, start, end))

        return span_wrapper

    def _wrap_aggregated(self, fn: Callable, entry: Entry) -> Callable:
        stack = self._stack
        clock = self._clock
        after = entry.after
        under = self.under
        stat_name = entry.stat
        if callable(stat_name):
            raise TypeError("a computed stat needs span=True")
        stat = self._stat(stat_name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # an object that outlived the traced repetition
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0, parent[1], parent[2], parent[3]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
                key = (parent[1], stat_name)
                cell = under.get(key)
                if cell is None:
                    under[key] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed

        return wrapper
