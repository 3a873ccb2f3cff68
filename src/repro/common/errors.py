"""Exception hierarchy shared across the TransEdge reproduction.

Every error raised by the library derives from :class:`TransEdgeError` so
applications can catch library failures with a single ``except`` clause while
still being able to distinguish protocol-level outcomes (transaction aborts),
verification failures (bad proofs or signatures) and configuration problems.
"""

from __future__ import annotations


class TransEdgeError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ConfigurationError(TransEdgeError):
    """A configuration object is inconsistent or out of supported range."""


class SimulationError(TransEdgeError):
    """The discrete-event simulator was used incorrectly."""


class NetworkError(SimulationError):
    """A message was addressed to an unknown node or the bus is misused."""


class StorageError(TransEdgeError):
    """The multi-version store was asked for an impossible read or write."""


class UnknownKeyError(StorageError):
    """A key was requested that has never been written."""

    def __init__(self, key: str) -> None:
        super().__init__(f"key {key!r} has never been written")
        self.key = key


class CryptoError(TransEdgeError):
    """A cryptographic primitive failed or was misused."""


class SignatureError(CryptoError):
    """A signature failed to verify or a signer is unknown."""


class ProofError(CryptoError):
    """A Merkle membership proof failed to verify."""


class ConsensusError(TransEdgeError):
    """The BFT consensus engine was driven into an invalid state."""


class NotLeaderError(ConsensusError):
    """A proposal was submitted to a replica that is not the current leader."""


class TransactionError(TransEdgeError):
    """Base class for transaction-processing protocol errors."""


class InvalidTransactionError(TransactionError):
    """A transaction object violates the protocol interface."""


class ReadOnlyProtocolError(TransactionError):
    """The snapshot read-only protocol received an unverifiable response."""


class InconsistentSnapshotError(ReadOnlyProtocolError):
    """A distributed read-only result failed the dependency check.

    The two-round protocol is expected to repair this internally; seeing the
    error escape to an application indicates a bug (Theorem 4.6 guarantees at
    most two rounds).
    """


class FreshnessError(TransactionError):
    """A returned snapshot is older than the configured freshness window."""


class VerificationError(TransEdgeError):
    """An execution history failed a correctness check (serializability)."""
