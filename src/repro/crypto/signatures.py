"""Per-node signing identities and signature verification.

Each edge node in TransEdge owns a key pair and signs every message it sends
to other nodes (Section 2 of the paper, "Interface").  This module provides
two interchangeable backends behind one interface:

* :class:`RsaSigner` — real public-key signatures built on the from-scratch
  RSA implementation in :mod:`repro.crypto.rsa`.
* :class:`HmacSigner` — a fast symmetric stand-in: every node holds a secret
  and the verifying side consults a :class:`KeyRegistry` acting as the
  deployment's PKI directory.  Within the simulation's threat model this is
  equivalent (a byzantine node cannot produce another node's MAC because it
  does not know the other node's secret), and it keeps large simulations
  cheap.

Signatures always cover ``stable_encode``-canonicalised payloads so that
independently computed digests agree across replicas.

Verification has one type, :class:`KeyRegistry`: the deployment's registry
holds every identity's material, and each node verifies through a registry
of its own (:meth:`KeyRegistry.for_node`) that shares those identities and
memoizes its verdicts in a private :class:`VerifyCache`.  The simulated
model is that cache: every node looks up, stores, counts and pays for its
own verdicts.  The host work behind them is done once per deployment: the
registries share one table of verdicts, consulted only after a node's own
cache misses, so a MAC or RSA check runs once per distinct signature, and
one :class:`Encodings` memo, so each flat signing payload is canonicalised
and digested once, whichever node signs or verifies it.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.common.errors import SignatureError
from repro.crypto import rsa
from repro.crypto.hashing import Digest, Encodable, sha256, stable_encode


@dataclass(frozen=True)
class Signature:
    """A signature over a canonicalised payload, tagged with its signer."""

    signer: str
    value: bytes
    scheme: str

    def __post_init__(self) -> None:
        if not self.signer:
            raise SignatureError("signature must carry a signer identity")


def signature_well_formed(signature: object) -> bool:
    """Is ``signature`` a :class:`Signature` whose signer a registry can look
    up and whose value a check can compare?  Signatures are outside input."""
    return (
        isinstance(signature, Signature)
        and isinstance(signature.signer, str)
        and isinstance(signature.value, bytes)
    )


#: Flat signing payloads whose encoding one deployment keeps.  The
#: ``ro_snapshot`` perfbench deployment at seed 0 signs and verifies 706
#: distinct ones.
ENCODING_MEMO_SIZE = 1 << 12

#: Signature verdicts one deployment keeps: one per distinct signature
#: checked, 3 291 in that same deployment.
VERDICT_TABLE_SIZE = 1 << 14

#: The exact types a flat payload may hold.  Across them, equal means equal
#: type and value, so a payload is its own memo key; ``True`` (a ``bool``,
#: equal to ``1`` but encoded differently) makes a payload not flat.
_FLAT_TYPES = frozenset((str, int, bytes))


class BoundedMemo:
    """A deployment's memo of pure facts: at most ``size`` entries, the
    oldest stored going first.  What it holds changes host work only, never
    an answer, so its bound and eviction order are free to choose."""

    __slots__ = ("size", "_entries")

    def __init__(self, size: int) -> None:
        self.size = size
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def lookup(self, key: Hashable):
        return self._entries.get(key)

    def store(self, key: Hashable, value: object) -> None:
        entries = self._entries
        entries[key] = value
        if len(entries) > self.size:
            entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class Encodings(BoundedMemo):
    """``stable_encode`` bytes and their SHA-256 digest, per flat payload.

    The vote, certificate, checkpoint, view-change and abort-vote payloads
    are short lists of exact ``str``/``int``/``bytes``; each is signed by one
    node and verified by many.  Keyed by its own content, such a payload is
    canonicalised once per deployment.  Anything else is encoded afresh.
    """

    __slots__ = ()

    def __init__(self, size: int = ENCODING_MEMO_SIZE) -> None:
        super().__init__(size)

    def of(self, payload: Encodable) -> Tuple[bytes, Digest]:
        """The canonical encoding of ``payload`` and its digest."""
        kind = type(payload)
        if kind is list or kind is tuple:
            key = tuple(payload)
            if _FLAT_TYPES.issuperset(map(type, key)):
                entry = self.lookup(key)
                if entry is None:
                    message = stable_encode(payload)
                    entry = (message, sha256(message))
                    self.store(key, entry)
                return entry
        message = stable_encode(payload)
        return message, sha256(message)


class Signer:
    """Interface implemented by the per-node signing backends.

    ``encodings`` is the deployment's :class:`Encodings`; a signer built
    without one keeps its own.
    """

    #: Name of the scheme, recorded inside produced signatures.
    scheme: str = "abstract"

    def __init__(self, identity: str, encodings: Optional[Encodings] = None) -> None:
        self.identity = identity
        self._encodings = encodings if encodings is not None else Encodings()

    def sign(self, payload: Encodable) -> Signature:
        """Sign the canonical encoding of ``payload``."""
        raise NotImplementedError

    def verification_material(self) -> object:
        """Return the object the registry should store to verify this signer."""
        raise NotImplementedError


class RsaSigner(Signer):
    """Public-key signer backed by :mod:`repro.crypto.rsa`."""

    scheme = "rsa"

    def __init__(
        self,
        identity: str,
        bits: int = 512,
        rng: Optional[random.Random] = None,
        encodings: Optional[Encodings] = None,
    ) -> None:
        super().__init__(identity, encodings)
        if rng is None:
            # Without a caller-supplied generator, derive one from the
            # identity: distinct signers still get distinct keys, but a
            # replayed run gets the same keys (no unseeded randomness).
            seed = int.from_bytes(sha256(stable_encode(identity))[:8], "big")
            rng = random.Random(seed)
        self._keypair = rsa.generate_keypair(bits=bits, rng=rng)

    def sign(self, payload: Encodable) -> Signature:
        message = self._encodings.of(payload)[0]
        return Signature(
            signer=self.identity,
            value=rsa.sign(self._keypair.private, message),
            scheme=self.scheme,
        )

    def verification_material(self) -> rsa.RsaPublicKey:
        return self._keypair.public


class HmacSigner(Signer):
    """Symmetric signer: MAC keyed by a per-node secret."""

    scheme = "hmac"

    def __init__(
        self,
        identity: str,
        secret: Optional[bytes] = None,
        encodings: Optional[Encodings] = None,
    ) -> None:
        super().__init__(identity, encodings)
        if secret is None:
            secret = hashlib.sha256(f"secret:{identity}".encode("utf-8")).digest()
        self._secret = secret

    def sign(self, payload: Encodable) -> Signature:
        message = self._encodings.of(payload)[0]
        value = hmac.new(self._secret, message, hashlib.sha256).digest()
        return Signature(signer=self.identity, value=value, scheme=self.scheme)

    def verification_material(self) -> bytes:
        return self._secret


class VerifyCache:
    """One LRU memo of verification verdicts, holding two kinds of entry.

    *Signature entries* ``(signer, scheme, payload digest, signature bytes)
    -> bool`` and *certificate entries* (written by
    :meth:`repro.bft.quorum.CommitCertificate.verify`, only ever ``True``);
    :class:`KeyRegistry` gives the soundness argument for each.  Both share
    the one LRU bound of ``size >= 1`` entries and are written only through
    :meth:`store`.  ``hits``/``misses`` count signature :meth:`lookup` calls
    — checks the node actually ran; a certificate :meth:`probe` is neither.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise SignatureError(f"a verify cache holds at least one entry, not {size}")
        self.size = size
        self._entries: "OrderedDict[Hashable, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, key: Hashable) -> Optional[bool]:
        cached = self._entries.get(key)
        if cached is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return cached

    def probe(self, key: Hashable) -> Optional[bool]:
        """The verdict stored under ``key``, counted as neither hit nor miss."""
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
        return cached

    def store(self, key: Hashable, valid: bool) -> None:
        self._entries[key] = valid
        if len(self._entries) > self.size:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)


class KeyRegistry:
    """Directory of verification material for every node in the deployment,
    and one verifier's memo of the verdicts it reached with it.

    The registry plays the role of the permissioned deployment's PKI: it is
    populated once during system setup, before any byzantine behaviour can
    occur, and is consulted by verifiers.  It never holds RSA private keys,
    and it refuses to register an identity twice, so the material behind a
    memoized verdict never changes.

    Every simulated node verifies through its own registry,
    :meth:`for_node`, which shares this one's identity tables but owns its
    :class:`VerifyCache` (and the ``on_miss`` hook), so each node pays for
    — and benefits from — exactly its own verification history.  Calling
    :meth:`verify` on the deployment's registry itself uses its own cache
    (offline verification, tests).

    Verdicts are memoized in two kinds of cache entry.

    *Signature entries*, keyed ``(signer, scheme, payload digest, signature
    bytes)``: every one of the ``3f + 1`` cluster members verifies the
    signatures a quorum exchanges, but the expensive work (the MAC/RSA
    check) only depends on the key.  The digest is always computed here from
    the very payload being verified, never taken from a network message, so
    a tampered payload, signature or claimed signer changes the key and
    misses the cache: memoization can never turn an invalid signature valid.

    *Certificate entries*, one per commit certificate that passed
    :meth:`verify_quorum`: the same certificate rides on every 2PC vote and
    read-only response, and its verdict is a pure function of the key —
    every certificate field the check reads, the member identities and the
    threshold, never anything a message says *about* the certificate — and
    of the registered material.  Only ``True`` is kept: registering a further
    identity can only add valid signers, whereas a ``False`` may rest on a
    signer not known *yet* (which is also why unknown signers get no
    signature entry).

    Two memos sit behind the caches, shared like the identity tables by
    every registry :meth:`for_node` makes.  The *verdict table*
    (:data:`VERDICT_TABLE_SIZE`) answers a node's cache miss under the same
    signature key when any node of the deployment has checked that
    signature before; the node still counts the miss, stores the verdict
    and is charged for it.  The *encodings* (:class:`Encodings`) give each
    flat payload's bytes and digest; the deployment's signers share them.
    """

    def __init__(self, verify_cache_size: int = 4096) -> None:
        self._materials: Dict[str, object] = {}
        self._schemes: Dict[str, str] = {}
        self._verdicts = BoundedMemo(VERDICT_TABLE_SIZE)
        #: The deployment's canonical payload encodings (see :class:`Encodings`).
        self.encodings = Encodings()
        #: ``_cache`` is a second name perfbench's verify-cache fidelity check reads.
        self.cache = self._cache = VerifyCache(verify_cache_size)
        #: Optional miss hook: called with the number of cache misses a
        #: ``verify``/``verify_quorum`` call incurred.  The simulation layer
        #: uses it to charge per-miss occupancy
        #: (``CostConfig.verify_cache_miss_penalty_ms``); ``None`` (default)
        #: keeps verification side-effect free.
        self.on_miss: "Optional[Callable[[int], None]]" = None

    def for_node(self) -> "KeyRegistry":
        """A registry over the same identities and memos with a cache of its own."""
        node = KeyRegistry(self.cache.size)
        node._materials = self._materials
        node._schemes = self._schemes
        node._verdicts = self._verdicts
        node.encodings = self.encodings
        return node

    def register(self, signer: Signer) -> None:
        """Record the verification material for ``signer``, once."""
        if signer.identity in self._materials:
            raise SignatureError(f"identity {signer.identity!r} is already registered")
        self._materials[signer.identity] = signer.verification_material()
        self._schemes[signer.identity] = signer.scheme

    def verify(self, payload: Encodable, signature: Signature) -> bool:
        """Return True when ``signature`` is a valid signature of ``payload``.

        A malformed signature is ``False``, before any cache key is built.
        """
        if not signature_well_formed(signature) or not self._knows(signature):
            return False
        misses = self.cache.misses
        valid = self._verify_encoded(signature, *self.encodings.of(payload))
        self._charge_misses(misses)
        return valid

    def _knows(self, signature: Signature) -> bool:
        """Is the signer registered, under the scheme the signature names?"""
        scheme = self._schemes.get(signature.signer)
        return scheme is not None and scheme == signature.scheme

    def _verify_encoded(self, signature: Signature, message: bytes, digest: Digest) -> bool:
        """Shared verify core for a signer it :meth:`_knows`, over the
        payload's encoding and its digest."""
        scheme = self._schemes[signature.signer]
        cache_key = (signature.signer, scheme, digest, signature.value)
        valid = self.cache.lookup(cache_key)
        if valid is not None:
            return valid
        valid = self._verdicts.lookup(cache_key)
        if valid is None:
            valid = self._check(self._materials[signature.signer], scheme, message, signature)
            self._verdicts.store(cache_key, valid)
        self.cache.store(cache_key, valid)
        return valid

    def _check(
        self, material: object, scheme: str, message: bytes, signature: Signature
    ) -> bool:
        if scheme == "rsa":
            assert isinstance(material, rsa.RsaPublicKey)
            return rsa.verify(material, message, signature.value)
        if scheme == "hmac":
            assert isinstance(material, bytes)
            expected = hmac.new(material, message, hashlib.sha256).digest()
            return hmac.compare_digest(expected, signature.value)
        return False

    def verify_quorum(
        self,
        payload: Encodable,
        signatures: Iterable[Signature],
        required: int,
        allowed_signers: Optional[Iterable[str]] = None,
    ) -> bool:
        """Verify that at least ``required`` distinct valid signers signed ``payload``.

        ``allowed_signers`` restricts which identities count towards the
        quorum (e.g. only members of one cluster).  Duplicate signers count
        once, and invalid signatures are simply ignored — the caller only
        cares whether enough honest-looking signatures are present.
        """
        allowed = set(allowed_signers) if allowed_signers is not None else None
        misses = self.cache.misses
        # One canonical encoding covers the whole quorum: every per-signature
        # check (hit or miss) reuses these bytes and their digest.
        message, digest = self.encodings.of(payload)
        valid_signers = set()
        for signature in signatures:
            if not signature_well_formed(signature):
                continue
            if allowed is not None and signature.signer not in allowed:
                continue
            if signature.signer in valid_signers or not self._knows(signature):
                continue
            if self._verify_encoded(signature, message, digest):
                valid_signers.add(signature.signer)
        self._charge_misses(misses)
        return len(valid_signers) >= required

    def _charge_misses(self, misses_before: int) -> None:
        misses = self.cache.misses - misses_before
        if self.on_miss is not None and misses > 0:
            self.on_miss(misses)


def make_signer(
    backend: str,
    identity: str,
    rng: Optional[random.Random] = None,
    rsa_bits: int = 512,
    encodings: Optional[Encodings] = None,
) -> Signer:
    """Create a signer of the configured backend (``'hmac'`` or ``'rsa'``)."""
    if backend == "hmac":
        return HmacSigner(identity, encodings=encodings)
    if backend == "rsa":
        return RsaSigner(identity, bits=rsa_bits, rng=rng, encodings=encodings)
    raise SignatureError(f"unknown signature backend {backend!r}")
