"""The benchmark tracer still fits the code it wraps.

``perfbench/trace.py`` wraps named methods through ``vars(owner)[name]``
(eleven of them on ``LeaderRole``), and the tier-1 suite never runs
``perfbench/tests``: renaming a wrapped method, or moving it into a base
class, would otherwise pass here and break only the benchmark run.
"""

from __future__ import annotations

import importlib

from perfbench.trace import ENTRY_POINTS, Recorder


def _current(entry):
    module = importlib.import_module(entry.module)
    owner_name, _, attribute = entry.qualname.rpartition(".")
    if not owner_name:
        return getattr(module, attribute)
    found = vars(getattr(module, owner_name))[attribute]
    return getattr(found, "func", found)  # cached_property: the wrapped function


def test_every_entry_installs_and_uninstall_restores_the_originals():
    before = [_current(entry) for entry in ENTRY_POINTS]
    recorder = Recorder()
    recorder.install()  # raises on an entry point that no longer exists
    try:
        assert all(_current(e) is not b for e, b in zip(ENTRY_POINTS, before))
    finally:
        recorder.uninstall()
    assert [_current(entry) for entry in ENTRY_POINTS] == before
