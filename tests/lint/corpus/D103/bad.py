"""D103 bad: iterating or formatting bare sets leaks PYTHONHASHSEED into behaviour."""


def notify(listeners, extra):
    pending = set(listeners) | {extra}
    for listener in pending:
        listener.poke()
    return [name.upper() for name in {"a", "b", "c"}]


def describe(observed):
    writers = {writer for writer in observed}
    return f"mixed snapshot: writers {writers}" + str(writers)
