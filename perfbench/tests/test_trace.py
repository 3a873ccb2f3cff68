"""Self-time arithmetic and wrapper install/uninstall."""

import importlib
import sys
import types

from perfbench.trace import ENTRY_POINTS, ROOT, Entry, Recorder


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


def synthetic_module(clock):
    """handler (span) -> encode (hot) -> digest (hot); times are exact."""
    module = types.ModuleType("perfbench_synthetic")

    def digest():
        clock.advance(5)

    def encode():
        clock.advance(10)
        module.digest()
        clock.advance(3)

    class Node:
        def handle(self):
            clock.advance(100)
            module.encode()
            module.encode()
            clock.advance(7)

    module.digest, module.encode, module.Node = digest, encode, Node
    sys.modules[module.__name__] = module
    return module


def test_children_subtract_and_layers_sum_to_root():
    clock = FakeClock()
    module = synthetic_module(clock)
    entries = (
        Entry("core.handler", module.__name__, "Node.handle", span=True, message=True),
        Entry("hashing.encode", module.__name__, "encode"),
        Entry("hashing.sha256", module.__name__, "digest"),
    )
    try:
        with Recorder(entries, clock=clock) as rec:
            clock.advance(11)  # time in no wrapped function
            module.Node().handle()
            clock.advance(2)
    finally:
        del sys.modules[module.__name__]
    # handle: 100 + 7 own; each encode: 10 + 3 own, 5 in digest.
    assert rec.stats["core.handler"] == [1, 107, 143]
    assert rec.stats["hashing.encode"] == [2, 26, 36]
    assert rec.stats["hashing.sha256"] == [2, 10, 10]
    assert rec.root_ns == 156
    assert rec.root_self_ns == 13
    # every nanosecond lands in exactly one stat or in the root's own time
    assert sum(stat[1] for stat in rec.stats.values()) + rec.root_self_ns == rec.root_ns
    assert rec.self_s("hashing.encode", "hashing.sha256") == 36e-9
    # Hot calls are aggregated under the name of their enclosing span.
    assert rec.under[("Node.handle", "hashing.encode")] == [2, 36]
    assert rec.under[("Node.handle", "hashing.sha256")] == [2, 10]
    # One stored span per handler call plus the root; the handler opens a message id.
    names = [(span[3], span[1], span[2]) for span in rec.spans]
    assert names == [("Node.handle", 0, 1), (ROOT, -1, 0)]


def test_exception_in_wrapped_call_still_closes_its_frame():
    clock = FakeClock()
    module = synthetic_module(clock)

    def boom():
        clock.advance(4)
        raise KeyError("x")

    module.digest = boom
    entries = (Entry("hashing.sha256", module.__name__, "digest"),)
    try:
        with Recorder(entries, clock=clock) as rec:
            try:
                module.digest()
            except KeyError:
                pass
            clock.advance(1)
    finally:
        del sys.modules[module.__name__]
    assert rec.stats["hashing.sha256"] == [1, 4, 4]
    assert rec.root_self_ns == 1


def _current(entry):
    module = importlib.import_module(entry.module)
    owner_name, _, attribute = entry.qualname.rpartition(".")
    if not owner_name:
        return getattr(module, attribute)
    found = vars(getattr(module, owner_name))[attribute]
    return getattr(found, "func", found)  # cached_property: the wrapped function


def test_install_wraps_every_entry_and_uninstall_restores_originals():
    import repro.chaos.runner as runner
    import repro.crypto.hashing as hashing
    import repro.crypto.signatures as signatures

    before = [_current(entry) for entry in ENTRY_POINTS]
    by_name = (signatures.sha256, signatures.stable_encode, runner.stable_encode)
    recorder = Recorder()
    recorder.install()
    try:
        during = [_current(entry) for entry in ENTRY_POINTS]
        assert all(a is not b for a, b in zip(before, during))
        # ``from repro.crypto.hashing import sha256`` sites are patched too.
        assert signatures.sha256 is hashing.sha256 is not by_name[0]
        assert runner.stable_encode is hashing.stable_encode is not by_name[2]
    finally:
        recorder.uninstall()
    assert [_current(entry) for entry in ENTRY_POINTS] == before
    assert (signatures.sha256, signatures.stable_encode, runner.stable_encode) == by_name


def test_wrapper_outside_a_recording_calls_straight_through():
    clock = FakeClock()
    module = synthetic_module(clock)
    entries = (Entry("hashing.sha256", module.__name__, "digest"),)
    try:
        recorder = Recorder(entries, clock=clock)
        recorder.install()
        module.digest()  # no root frame open: must not record or raise
        recorder.uninstall()
    finally:
        del sys.modules[module.__name__]
    assert recorder.stats["hashing.sha256"] == [0, 0, 0]
