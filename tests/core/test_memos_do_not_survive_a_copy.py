"""A fact memoised on a value object is dropped by every copy of it.

Byzantine senders are modelled as "deep-copy the honest object, mutate the
copy" (``FaultInjector.tamper``, ``make_equivocating_leader``, the edge
behaviours), and a ``cached_property`` lives in the instance ``__dict__``
that ``copy``/``pickle`` carry along — so without :class:`MemoisedValue` the
tampered copy would answer ``digest()`` with the *honest* digest.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.bft.byzantine import make_equivocating_leader
from repro.bft.quorum import CommitCertificate
from repro.common.config import BatchConfig, LatencyConfig, SystemConfig
from repro.common.types import MemoisedValue
from repro.core.batch import (
    Batch,
    CertifiedHeader,
    CommitRecord,
    PreparedRecord,
    PreparedVote,
    ReadOnlySegment,
)
from repro.core.cdvector import CDVector
from repro.core.replica import PartitionReplica
from repro.core.system import TransEdgeSystem
from repro.core.transaction import TxnPayload
from repro.crypto.signatures import Signature
from repro.recovery.snapshot import SnapshotImage
from repro.storage.partitioner import HashPartitioner

PARTITIONER = HashPartitioner(2)


def _txn(txn_id="t1"):
    return TxnPayload(txn_id, reads={"a": 1}, writes={"k": b"v", "z": b"w"}, client="c")


def _certificate():
    return CommitCertificate(
        partition=0, view=0, seq=1, digest=b"d" * 32,
        signatures=(Signature("P0/R0", b"s0", "hmac"), Signature("P0/R1", b"s1", "hmac")),
    )


def _read_only():
    return ReadOnlySegment(CDVector.from_entries([1, -1]), lce=0, merkle_root=b"r" * 32, timestamp_ms=1.0)


def _header():
    return CertifiedHeader(0, 1, _read_only(), content_digest=b"c" * 32, certificate=_certificate())


def _record():
    votes = {
        p: PreparedVote("t1", p, True, prepare_batch=1, cd_vector=CDVector.from_entries([p, 3]), header=_header())
        for p in (0, 1)
    }
    return CommitRecord(txn=_txn(), coordinator=0, decision=True, prepare_batch=1, votes=votes)


def _batch():
    return Batch(
        partition=0, number=2, local_txns=(_txn("local"),),
        prepared=(PreparedRecord(_txn("t2"), coordinator=1),), committed=(_record(),), read_only=_read_only(),
    )


def _image():
    return SnapshotImage(
        partition=0, seq=2, items=(("a", 1, b"v"),), prepared=((1, (PreparedRecord(_txn("t2"), 1),)),),
        header=_header(), decisions=((2, _record()),),
    )


def _tamper_first_write(txn):
    txn.writes["k"] = b"evil"


#: class -> (factory, read every memo, what the memos answer, in-place tamper of a deep copy)
CASES = {
    "TxnPayload": (
        _txn,
        lambda t: (t.partitions(PARTITIONER), t.encoded),
        lambda t: (t.writes_in(PARTITIONER.partition_of("k"), PARTITIONER)["k"], t.encoded.data),
        _tamper_first_write,
    ),
    "CommitRecord": (
        _record,
        lambda r: (r.encoded, r.reported_max),
        lambda r: (r.encoded.data, r.reported_max),
        lambda r: (_tamper_first_write(r.txn), r.votes.pop(1)),
    ),
    "Batch": (
        _batch,
        lambda b: (b.digest(), b.visible_writes(PARTITIONER)),
        lambda b: (b.content_digest(), b.digest(), dict(b.visible_writes(PARTITIONER))),
        lambda b: _tamper_first_write(b.local_txns[0]),
    ),
    "CertifiedHeader": (
        _header,
        lambda h: h.digest(),
        lambda h: h.digest(),
        lambda h: h.__dict__.update(content_digest=b"e" * 32),
    ),
    "CommitCertificate": (
        _certificate,
        lambda c: c._verified_fields,
        lambda c: c._verified_fields,
        lambda c: c.__dict__.update(seq=7),
    ),
    "SnapshotImage": (
        _image,
        lambda i: i.digest(),
        lambda i: i.digest(),
        lambda i: _tamper_first_write(i.decisions[0][1].txn),
    ),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", CASES)
def test_a_copy_holds_the_fields_and_no_memo(name, how):
    factory, warm, _, _ = CASES[name]
    original = factory()
    assert isinstance(original, MemoisedValue)
    warm(original)
    fields = {field.name for field in dataclasses.fields(original)}
    assert set(original.__dict__) > fields  # the memos are there to be lost
    duplicate = COPIES[how](original)
    assert set(duplicate.__dict__) == fields
    assert duplicate == original


@pytest.mark.parametrize("name", CASES)
def test_a_tampered_deep_copy_answers_for_its_own_fields(name):
    factory, warm, answers, tamper = CASES[name]
    honest = factory()
    warm(honest)
    forged = copy.deepcopy(honest)
    tamper(forged)
    # What a fresh object over the forged fields says — not what the honest one said.
    fresh = dataclasses.replace(forged)
    assert answers(forged) == answers(fresh)
    assert answers(forged) != answers(honest)


def test_a_batch_write_set_is_read_only():
    with pytest.raises(TypeError):
        _batch().visible_writes(PARTITIONER)["k"] = b"evil"


def test_equivocating_leader_mutating_in_place_is_stopped_at_the_digest_check(monkeypatch):
    system = TransEdgeSystem(
        SystemConfig(
            num_partitions=1,
            fault_tolerance=1,
            initial_keys=16,
            batch=BatchConfig(max_size=1, timeout_ms=1.0),
            latency=LatencyConfig(jitter_fraction=0.0),
        )
    )
    system.run_until_idle()
    members = system.topology.members(0)
    leader, confused = members[0], members[2:]

    def corrupt(batch):
        for txn in batch.local_txns:
            for key in txn.writes:
                txn.writes[key] = b"evil"
        return batch

    make_equivocating_leader(system.fault_injector, leader, list(confused), corrupt)

    validated = []  # (replica, value it was asked to validate)
    real = PartitionReplica.validate_proposal

    def recording(self, seq, proposal):
        validated.extend((self.node_id, txn.writes[key]) for txn in proposal.local_txns for key in txn.writes)
        return real(self, seq, proposal)

    monkeypatch.setattr(PartitionReplica, "validate_proposal", recording)

    client = system.create_client("writer")
    key = system.keys_of_partition(0)[0]

    def body():
        yield from client.read_write_txn([], {key: b"honest"})

    client.spawn(body())
    system.run(until_ms=200.0)

    # The sealed batch's digest was computed (and memoised) before the send;
    # the forged copy must digest its own fields and fail ``message.digest !=
    # digest_fn(proposal)``, never reaching the application.
    assert (leader, b"honest") in validated
    assert not [entry for entry in validated if entry[1] == b"evil"]
