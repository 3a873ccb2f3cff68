"""S201 bad: filesystem and OS escape hatches inside simulation code."""

import gc
import subprocess
import threading


def snapshot(state, path):
    with open(path, "w") as handle:
        handle.write(repr(state))


def compact(path):
    subprocess.run(["gzip", path])


def background(fn):
    threading.Thread(target=fn).start()


def quiet_collector():
    gc.disable()  # only the run loop sets the collector policy
