"""Certificate record model.

This mirrors what the paper's pipeline actually had access to: the
*structured* fields Zeek extracts into ``X509.log`` (issuer, subject,
serial, validity, key algorithm/length), **not** raw DER.  Raw-crypto
certificates (with real keys and signatures) live in
:mod:`repro.x509.pem` and are only used for the Appendix D validation
comparison, exactly as in the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta
from enum import Enum
from typing import Optional

from .dn import DistinguishedName
from .extensions import ExtensionSet

__all__ = ["Certificate", "CertificateRole", "KeyAlgorithm", "ValidityPeriod"]


class CertificateRole(str, Enum):
    """Ground-truth role of a certificate within its issuing hierarchy.

    The analyzer never reads this — it must *infer* structure from the
    issuer/subject fields like the paper does — but the simulator records it
    so tests can check the analyzer's inferences against truth.
    """

    ROOT = "root"
    INTERMEDIATE = "intermediate"
    LEAF = "leaf"


class KeyAlgorithm(str, Enum):
    RSA = "rsa"
    ECDSA = "ecdsa"
    ED25519 = "ed25519"
    DSA = "dsa"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class ValidityPeriod:
    not_before: datetime
    not_after: datetime

    def __post_init__(self) -> None:
        if self.not_after < self.not_before:
            raise ValueError(
                f"notAfter ({self.not_after}) precedes notBefore ({self.not_before})"
            )

    def contains(self, moment: datetime) -> bool:
        return self.not_before <= moment <= self.not_after

    def overlaps(self, other: "ValidityPeriod") -> bool:
        return self.not_before <= other.not_after and other.not_before <= self.not_after

    @property
    def lifetime(self) -> timedelta:
        return self.not_after - self.not_before

    def is_expired(self, at: datetime) -> bool:
        return at > self.not_after

    @classmethod
    def days(cls, start: datetime, days: int) -> "ValidityPeriod":
        return cls(start, start + timedelta(days=days))


@dataclass(frozen=True, slots=True)
class Certificate:
    """One certificate as seen by the measurement pipeline.

    Identity is the SHA-256 ``fingerprint`` of the canonical field encoding;
    two log entries with the same fingerprint are the same certificate, which
    is how the paper de-duplicates 743,993 distinct certificates out of
    millions of log rows.
    """

    subject: DistinguishedName
    issuer: DistinguishedName
    serial: str
    validity: ValidityPeriod
    key_algorithm: KeyAlgorithm = KeyAlgorithm.RSA
    key_bits: int = 2048
    signature_algorithm: str = "sha256WithRSAEncryption"
    extensions: ExtensionSet = field(default_factory=ExtensionSet)
    version: int = 3
    #: Ground truth for the simulator; never consulted by the analyzer.
    true_role: Optional[CertificateRole] = None
    #: Key identifier of the key that actually signed this certificate
    #: (ground truth for cross-sign modelling; the analyzer sees only DNs).
    signing_key_id: Optional[str] = None
    #: Set when the certificate was reconstructed from a log row, so the
    #: identity stays the one the SSL log references.
    fingerprint_override: Optional[str] = None
    #: Lazily computed :attr:`fingerprint`.  Excluded from equality and
    #: repr; ``dataclasses.replace`` re-runs ``__init__`` so a copy with
    #: edited fields starts with a clean memo.
    _fingerprint_memo: Optional[str] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """SHA-256 over the canonical structured encoding, hex-encoded.

        Serial numbers are factory-unique, so the canonical string (and the
        fingerprint) survives a round trip through an X509 log row.

        Memoized per instance: the workload generator asks for every chain
        member's fingerprint once per simulated connection (SSL rows, tap
        dedup, spec keys), and the canonical string renders two RFC 4514
        names each time — recomputing it dominated generation profiles.
        """
        if self.fingerprint_override is not None:
            return self.fingerprint_override
        memo = self._fingerprint_memo
        if memo is None:
            canonical = "|".join(
                (
                    self.subject.rfc4514(),
                    self.issuer.rfc4514(),
                    self.serial,
                    f"{self.validity.not_before.timestamp():.6f}",
                    f"{self.validity.not_after.timestamp():.6f}",
                    self.key_algorithm.value,
                    str(self.key_bits),
                    self.signature_algorithm,
                )
            )
            memo = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint_memo", memo)
        return memo

    @property
    def is_self_signed(self) -> bool:
        """Issuer and subject name are identical — the paper's §4.3 definition."""
        return self.subject.matches(self.issuer)

    def issued(self, other: "Certificate") -> bool:
        """Name-chaining check: does this certificate's subject match
        ``other``'s issuer?  This is the paper's issuer–subject methodology
        (Appendix D.1) — no key material involved."""
        return self.subject.matches(other.issuer)

    def is_valid_at(self, moment: datetime) -> bool:
        return self.validity.contains(moment)

    def with_serial(self, serial: str) -> "Certificate":
        return replace(self, serial=serial)

    def short_name(self) -> str:
        """Human-readable label for reports: CN, else O, else the full DN."""
        return (
            self.subject.common_name
            or self.subject.organization
            or self.subject.rfc4514()
            or "<empty subject>"
        )

    def __repr__(self) -> str:
        return (
            f"Certificate(subject={self.subject.rfc4514()!r}, "
            f"issuer={self.issuer.rfc4514()!r}, serial={self.serial!r})"
        )
