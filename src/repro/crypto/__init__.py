"""Cryptographic substrate: hashing, signatures, key registry and Merkle ADS."""

from repro.crypto.archive import HistoricalTreeView, MerkleTreeArchive
from repro.crypto.hashing import (
    Digest,
    combine_digests,
    digest_of,
    sha256,
    sha256_hex,
    stable_encode,
)
from repro.crypto.merkle import (
    EMPTY_ROOT,
    MerkleProof,
    MerkleStore,
    MerkleTree,
    ProofStep,
    leaf_digest,
    verify_proof,
)
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.crypto.signatures import (
    HmacSigner,
    KeyRegistry,
    NodeVerifier,
    RsaSigner,
    Signature,
    Signer,
    VerifyCache,
    make_signer,
)

__all__ = [
    "Digest",
    "EMPTY_ROOT",
    "HistoricalTreeView",
    "HmacSigner",
    "KeyRegistry",
    "NodeVerifier",
    "MerkleProof",
    "MerkleStore",
    "MerkleTree",
    "MerkleTreeArchive",
    "ProofStep",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "RsaSigner",
    "Signature",
    "Signer",
    "VerifyCache",
    "combine_digests",
    "digest_of",
    "generate_keypair",
    "leaf_digest",
    "make_signer",
    "sha256",
    "sha256_hex",
    "stable_encode",
    "verify_proof",
]
