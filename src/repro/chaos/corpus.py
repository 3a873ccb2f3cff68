"""The persisted chaos corpus: interesting plans with determinism digests.

The corpus is a directory (``.chaos-corpus/`` by convention) of one JSON
file per entry — the full replayable plan, the coverage signature that
earned it admission, and the run's fingerprint and trace digest.  The
digests make every entry a standing *determinism oracle*: replaying the
plan on any machine must reproduce both byte-for-byte, so corpus replay
(the per-PR smoke job) catches cross-process nondeterminism the moment it
creeps in, exactly like the pinned-seed determinism tests but over the
fleet's accumulated rare-path scenarios.  The nightly coverage job grows
the corpus by admitting mutants that exhibit novel features; admission is
by plan identity (a digest of the canonical plan encoding), so re-running
a session never duplicates entries.

``metadata.json`` (not an entry) carries fleet bookkeeping: the global
coverage map, a log of coverage sessions, and the latest
``python -m repro.lint --json`` summary the nightly job folded in.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.plan import ChaosPlan
from repro.common.errors import ConfigurationError

#: Bumped when an entry field — or the plan schema inside it — changes
#: (v2: the plan's ``ConfigPoint`` lost the five behaviour toggles).
ENTRY_VERSION = 2

_ENTRY_PREFIX = "entry-"
_METADATA_FILE = "metadata.json"


def plan_id(plan: ChaosPlan) -> str:
    """Stable identity of a plan: the head of :meth:`ChaosPlan.digest`."""
    return plan.digest()[:16]


@dataclass
class CorpusEntry:
    """One admitted plan plus the evidence that justified keeping it."""

    entry_id: str
    plan: ChaosPlan
    signature: Tuple[str, ...]
    fingerprint: str
    trace_digest: str
    #: Provenance: ``"seed:<n>"`` for uniform-sweep admissions, a parent
    #: entry id for mutants.
    parent: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "version": ENTRY_VERSION,
            "entry_id": self.entry_id,
            "plan": self.plan.to_dict(),
            "signature": list(self.signature),
            "fingerprint": self.fingerprint,
            "trace_digest": self.trace_digest,
            "parent": self.parent,
        }

    @classmethod
    def from_dict(cls, data: dict, source: str = "corpus entry") -> "CorpusEntry":
        version = data.get("version")
        if version != ENTRY_VERSION:
            raise ConfigurationError(
                f"{source}: corpus entry version {version!r}, this version "
                f"reads {ENTRY_VERSION}"
            )
        missing = sorted({"entry_id", "plan"} - set(data))
        if missing:
            raise ConfigurationError(f"{source}: corpus entry is missing {missing}")
        return cls(
            entry_id=str(data["entry_id"]),
            plan=ChaosPlan.from_dict(data["plan"], source),
            signature=tuple(data.get("signature") or ()),
            fingerprint=str(data.get("fingerprint", "")),
            trace_digest=str(data.get("trace_digest", "")),
            parent=data.get("parent"),
        )


class Corpus:
    """Directory-backed entry store (load-all on open, write-through adds)."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.entries: Dict[str, CorpusEntry] = {}
        self._load()

    def _entry_path(self, entry_id: str) -> str:
        return os.path.join(self.directory, f"{_ENTRY_PREFIX}{entry_id}.json")

    def _load(self) -> None:
        if not os.path.isdir(self.directory):
            return
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith(_ENTRY_PREFIX) and name.endswith(".json")):
                continue
            path = os.path.join(self.directory, name)
            with open(path, "r", encoding="utf-8") as handle:
                entry = CorpusEntry.from_dict(json.load(handle), path)
            self.entries[entry.entry_id] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def ordered(self) -> List[CorpusEntry]:
        """Entries in stable (id) order — the iteration order everywhere."""
        return [self.entries[entry_id] for entry_id in sorted(self.entries)]

    def add(self, entry: CorpusEntry) -> bool:
        """Admit ``entry`` (no-op on a duplicate id); True when admitted."""
        if entry.entry_id in self.entries:
            return False
        os.makedirs(self.directory, exist_ok=True)
        self.entries[entry.entry_id] = entry
        with open(self._entry_path(entry.entry_id), "w", encoding="utf-8") as handle:
            json.dump(entry.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return True

    # -- metadata ----------------------------------------------------------

    def read_metadata(self) -> dict:
        path = os.path.join(self.directory, _METADATA_FILE)
        if not os.path.isfile(path):
            return {}
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def write_metadata(self, metadata: dict) -> str:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, _METADATA_FILE)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(metadata, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path
