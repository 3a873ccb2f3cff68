"""D103 good: sets are sorted before any order-observable iteration or formatting."""


def notify(listeners, extra):
    pending = set(listeners) | {extra}
    for listener in sorted(pending):
        listener.poke()
    return [name.upper() for name in sorted({"a", "b", "c"})]


def describe(observed):
    writers = {writer for writer in observed}
    return f"mixed snapshot: {len(writers)} writers {sorted(writers)}" + str(sorted(writers))
