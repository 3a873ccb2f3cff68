"""D103 bad: iterating or formatting bare sets leaks PYTHONHASHSEED into behaviour."""

from typing import Dict, Set


def notify(listeners, extra):
    pending = set(listeners) | {extra}
    for listener in pending:
        listener.poke()
    return [name.upper() for name in {"a", "b", "c"}]


def describe(observed):
    writers = {writer for writer in observed}
    return f"mixed snapshot: writers {writers}" + str(writers)


class Owners:
    """Sets held as the values of a mapping attribute iterate in hash order too."""

    def __init__(self):
        self._readers: Dict[str, Set[str]] = {}

    def first(self, key):
        for owner in self._readers.get(key, ()):
            return owner
        return [owner.upper() for owner in self._readers[key]]
