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
memoizes its verdicts in a private :class:`VerifyCache`.
"""

from __future__ import annotations

import hashlib
import hmac
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, Optional

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


class Signer:
    """Interface implemented by the per-node signing backends."""

    #: Name of the scheme, recorded inside produced signatures.
    scheme: str = "abstract"

    def __init__(self, identity: str) -> None:
        self.identity = identity

    def sign(self, payload: Encodable) -> Signature:
        """Sign the canonical encoding of ``payload``."""
        raise NotImplementedError

    def verification_material(self) -> object:
        """Return the object the registry should store to verify this signer."""
        raise NotImplementedError


class RsaSigner(Signer):
    """Public-key signer backed by :mod:`repro.crypto.rsa`."""

    scheme = "rsa"

    def __init__(self, identity: str, bits: int = 512, rng: Optional[random.Random] = None) -> None:
        super().__init__(identity)
        if rng is None:
            # Without a caller-supplied generator, derive one from the
            # identity: distinct signers still get distinct keys, but a
            # replayed run gets the same keys (no unseeded randomness).
            seed = int.from_bytes(sha256(stable_encode(identity))[:8], "big")
            rng = random.Random(seed)
        self._keypair = rsa.generate_keypair(bits=bits, rng=rng)

    def sign(self, payload: Encodable) -> Signature:
        message = stable_encode(payload)
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

    def __init__(self, identity: str, secret: Optional[bytes] = None) -> None:
        super().__init__(identity)
        if secret is None:
            secret = hashlib.sha256(f"secret:{identity}".encode("utf-8")).digest()
        self._secret = secret

    def sign(self, payload: Encodable) -> Signature:
        message = stable_encode(payload)
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

    Verdicts are memoized in two kinds of entry.

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
    """

    def __init__(self, verify_cache_size: int = 4096) -> None:
        self._materials: Dict[str, object] = {}
        self._schemes: Dict[str, str] = {}
        #: ``_cache`` is a second name perfbench's verify-cache fidelity check reads.
        self.cache = self._cache = VerifyCache(verify_cache_size)
        #: Optional miss hook: called with the number of cache misses a
        #: ``verify``/``verify_quorum`` call incurred.  The simulation layer
        #: uses it to charge per-miss occupancy
        #: (``CostConfig.verify_cache_miss_penalty_ms``); ``None`` (default)
        #: keeps verification side-effect free.
        self.on_miss: "Optional[Callable[[int], None]]" = None

    def for_node(self) -> "KeyRegistry":
        """A registry over the same identities with a cache of its own."""
        node = KeyRegistry(self.cache.size)
        node._materials = self._materials
        node._schemes = self._schemes
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
        if not signature_well_formed(signature):
            return False
        misses = self.cache.misses
        valid = self._verify_encoded(payload, signature, None, None)
        self._charge_misses(misses)
        return valid

    def _verify_encoded(
        self,
        payload: Encodable,
        signature: Signature,
        message: Optional[bytes],
        digest: Optional[Digest],
    ) -> bool:
        """Shared verify core; ``message`` and ``digest`` carry the
        payload's encoding and its digest (from :meth:`verify_quorum`) so the
        payload is canonicalised at most once per call chain."""
        material = self._materials.get(signature.signer)
        scheme = self._schemes.get(signature.signer)
        if material is None or scheme != signature.scheme:
            return False
        if message is None:
            # Encode once: the same bytes key the cache and feed the check.
            message = stable_encode(payload)
            digest = sha256(message)
        cache_key = (signature.signer, scheme, digest, signature.value)
        cached = self.cache.lookup(cache_key)
        if cached is not None:
            return cached
        valid = self._check(material, scheme, message, signature)
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
        message = stable_encode(payload)
        digest = sha256(message)
        valid_signers = set()
        for signature in signatures:
            if not signature_well_formed(signature):
                continue
            if allowed is not None and signature.signer not in allowed:
                continue
            if signature.signer in valid_signers:
                continue
            if self._verify_encoded(payload, signature, message, digest):
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
) -> Signer:
    """Create a signer of the configured backend (``'hmac'`` or ``'rsa'``)."""
    if backend == "hmac":
        return HmacSigner(identity)
    if backend == "rsa":
        return RsaSigner(identity, bits=rsa_bits, rng=rng)
    raise SignatureError(f"unknown signature backend {backend!r}")
