"""D103 good: sets are sorted before any order-observable iteration or formatting."""

from typing import Dict, Set


def notify(listeners, extra):
    pending = set(listeners) | {extra}
    for listener in sorted(pending):
        listener.poke()
    return [name.upper() for name in sorted({"a", "b", "c"})]


def describe(observed):
    writers = {writer for writer in observed}
    return f"mixed snapshot: {len(writers)} writers {sorted(writers)}" + str(sorted(writers))


class Owners:
    """A mapping's set values are sorted; a dict used as an ordered set keeps insertion order."""

    def __init__(self):
        self._readers: Dict[str, Set[str]] = {}
        self._writers: Dict[str, Dict[str, None]] = {}

    def first(self, key):
        for owner in self._writers.get(key, ()):
            return owner
        return [owner.upper() for owner in sorted(self._readers[key])]
