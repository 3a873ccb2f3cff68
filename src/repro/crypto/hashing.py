"""Hashing helpers used by signatures, Merkle trees and batch digests.

Everything that ends up under a signature is first reduced to a SHA-256
digest of a canonical byte encoding.  ``stable_encode`` provides the
canonical encoding: it is deterministic across processes and independent of
Python's per-process hash randomisation, which matters because different
replicas must compute identical digests for identical batches.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Sequence, Union

from repro.common.ids import NODE_ID_TYPES

Digest = bytes


class Encoded:
    """The :func:`stable_encode` bytes of one value, spliced in where it recurs.

    The format is context-free and self-delimiting: a value's encoding is the
    same bytes at every position of every enclosing structure, so an immutable
    value embedded in several digested structures (a 2PC transaction in each
    cluster's prepared and commit records) is canonicalised once and its bytes
    copied.  Build one with :meth:`of`; only ``stable_encode`` output may be
    wrapped, and only an exact ``Encoded`` is spliced.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        if type(data) is not bytes:
            raise TypeError(f"a fragment wraps bytes, got {type(data).__name__}")
        self.data = data

    @classmethod
    def of(cls, value: "Encodable") -> "Encoded":
        return cls(stable_encode(value))


#: Types that ``stable_encode`` understands.
Encodable = Union[
    None, bool, int, float, str, bytes, Encoded, Sequence["Encodable"], Mapping[str, "Encodable"]
]


def sha256(data: bytes) -> Digest:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def sha256_hex(data: bytes) -> str:
    """Hex-encoded SHA-256 digest of ``data``."""
    return hashlib.sha256(data).hexdigest()


def stable_encode(value: Encodable) -> bytes:
    """Encode ``value`` into a canonical, order-stable byte string.

    The encoding is a small, self-delimiting tagged format:

    * ``None``/``bool``/``int``/``float``/``str``/``bytes`` become tagged
      literals.
    * sequences (``list``/``tuple``) encode their items in order;
    * mappings encode their items sorted by key, so two dictionaries with the
      same contents always encode identically regardless of insertion order;
    * an :class:`Encoded` fragment contributes the bytes it holds, which are
      the bytes the value it was built from would produce here.

    :func:`_encode_into` dispatches the exact builtins that make up nearly
    every payload node on ``type(value)`` (the cost was an ``isinstance``
    ladder walked per node, not building the bytes); ``None``, ``bool``,
    ``float`` and subclasses fall through to what is left of that ladder.
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def digest_of(value: Encodable) -> Digest:
    """SHA-256 digest of the canonical encoding of ``value``."""
    return sha256(stable_encode(value))


def combine_digests(digests: Iterable[Digest]) -> Digest:
    """Hash a sequence of digests into one (used for batch/certificate ids)."""
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest)
    return hasher.digest()


def _encode_into(value: Encodable, out: bytearray) -> None:
    # Exact builtins first; the format is pinned by a copy of the pre-dispatch
    # ladder in tests/crypto/test_stable_encode_properties.py.
    kind = type(value)
    if kind is str:
        encoded = value.encode("utf-8")
        out += b"S" + len(encoded).to_bytes(4, "big") + encoded
    elif kind is int:
        encoded = str(value).encode("ascii")
        out += b"I" + len(encoded).to_bytes(4, "big") + encoded
    elif kind is bytes:
        out += b"B" + len(value).to_bytes(4, "big") + value
    elif kind is list or kind is tuple:
        out += b"L" + len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(item, out)
    elif kind is dict:
        out += b"M" + len(value).to_bytes(4, "big")
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"mapping keys must be str, got {type(key).__name__}")
            encoded = key.encode("utf-8")
            out += b"S" + len(encoded).to_bytes(4, "big") + encoded
            _encode_into(value[key], out)
    elif kind is Encoded:
        out += value.data
    elif value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        encoded = str(value).encode("ascii")
        out += b"I" + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, float):
        encoded = repr(value).encode("ascii")
        out += b"D" + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out += b"S" + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, bytes):
        out += b"B" + len(value).to_bytes(4, "big") + value
    elif isinstance(value, (list, tuple)) and not isinstance(value, NODE_ID_TYPES):
        # A node id is a tuple only for speed; a signed payload names it by
        # ``str`` and must never swallow one as a two-element sequence.
        _encode_into(list(value), out)
    elif isinstance(value, Mapping):
        _encode_into(dict(value), out)
    else:
        raise TypeError(f"cannot stably encode values of type {type(value).__name__}")
