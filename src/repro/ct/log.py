"""Certificate Transparency log: submission, SCTs, and proofs.

Standards [20, 25] require leaf certificates chained to public trust roots
and used for public-facing domains to be logged; §4.2 confirms the 26
non-public-DB-issued leaves anchored to public roots were all logged.
The simulator enforces the same policy by submitting qualifying leaves
here, and the analyzer's interception detector queries the resulting
index (via :mod:`repro.ct.crtsh`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

from ..x509.certificate import Certificate
from .merkle import MerkleTree, leaf_hash, verify_inclusion

__all__ = ["CTLog", "LogEntry", "SignedCertificateTimestamp"]


@dataclass(frozen=True, slots=True)
class SignedCertificateTimestamp:
    """An SCT: the log's promise to incorporate the certificate."""

    log_id: str
    timestamp: datetime
    leaf_index: int
    signature: str

    def covers(self, certificate: Certificate) -> bool:
        return self.signature == _sct_signature(self.log_id, certificate)


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One accepted submission: the leaf and the chain it was submitted with."""

    index: int
    certificate: Certificate
    chain: tuple[Certificate, ...]
    timestamp: datetime


def _sct_signature(log_id: str, certificate: Certificate) -> str:
    return hashlib.sha256(
        f"{log_id}:{certificate.fingerprint}".encode("ascii")
    ).hexdigest()


def _entry_bytes(certificate: Certificate) -> bytes:
    return certificate.fingerprint.encode("ascii")


class CTLog:
    """An append-only CT log with Merkle-backed inclusion proofs.

    Submission policy mirrors real logs: the chain must name-chain from the
    submitted leaf to one of the log's accepted roots.  (Real logs verify
    signatures; the structured-record simulator name-chains, which is the
    same acceptance set for the synthetic corpus because the simulator only
    mis-signs where it also mis-names.)
    """

    def __init__(self, log_id: str,
                 accepted_roots: Sequence[Certificate] = ()):
        self.log_id = log_id
        self._tree = MerkleTree()
        self._entries: List[LogEntry] = []
        self._by_fingerprint: Dict[str, int] = {}
        self._accepted_root_subjects = {
            tuple(sorted(root.subject.normalized())) for root in accepted_roots
        }

    # -- submission ------------------------------------------------------------

    def add_chain(self, chain: Sequence[Certificate],
                  timestamp: Optional[datetime] = None) -> SignedCertificateTimestamp:
        """Submit a leaf-first chain; returns an SCT or raises ``ValueError``."""
        if not chain:
            raise ValueError("cannot submit an empty chain")
        if not self._chains_to_accepted_root(chain):
            raise ValueError(
                f"chain for {chain[0].short_name()!r} does not terminate at "
                f"an accepted root of log {self.log_id!r}"
            )
        leaf = chain[0]
        existing = self._by_fingerprint.get(leaf.fingerprint)
        if existing is not None:
            entry = self._entries[existing]
            return SignedCertificateTimestamp(
                self.log_id, entry.timestamp, entry.index,
                _sct_signature(self.log_id, leaf),
            )
        when = timestamp or datetime.now(timezone.utc)
        index = self._tree.append(_entry_bytes(leaf))
        entry = LogEntry(index, leaf, tuple(chain), when)
        self._entries.append(entry)
        self._by_fingerprint[leaf.fingerprint] = index
        return SignedCertificateTimestamp(
            self.log_id, when, index, _sct_signature(self.log_id, leaf)
        )

    def _chains_to_accepted_root(self, chain: Sequence[Certificate]) -> bool:
        for current, parent in zip(chain, chain[1:]):
            if not parent.issued(current):
                return False
        last = chain[-1]
        key = tuple(sorted(last.subject.normalized()))
        if key in self._accepted_root_subjects:
            return True
        issuer_key = tuple(sorted(last.issuer.normalized()))
        return issuer_key in self._accepted_root_subjects

    # -- queries ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._tree.size

    def root_hash(self, tree_size: Optional[int] = None) -> bytes:
        return self._tree.root(tree_size)

    def entry(self, index: int) -> LogEntry:
        return self._entries[index]

    def entries(self) -> list[LogEntry]:
        return list(self._entries)

    def contains(self, certificate: Certificate) -> bool:
        return certificate.fingerprint in self._by_fingerprint

    def prove_inclusion(self, certificate: Certificate) -> list[bytes]:
        index = self._by_fingerprint.get(certificate.fingerprint)
        if index is None:
            raise KeyError(f"{certificate.short_name()!r} is not in log {self.log_id!r}")
        return self._tree.inclusion_proof(index)

    def check_inclusion(self, certificate: Certificate,
                        proof: Sequence[bytes]) -> bool:
        index = self._by_fingerprint.get(certificate.fingerprint)
        if index is None:
            return False
        return verify_inclusion(_entry_bytes(certificate), index,
                                self._tree.size, proof, self._tree.root())

    def consistency_proof(self, old_size: int,
                          new_size: Optional[int] = None) -> list[bytes]:
        return self._tree.consistency_proof(old_size, new_size)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"CTLog({self.log_id!r}, {len(self)} entries)"
