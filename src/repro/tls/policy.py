"""Client-side certificate chain validation policies.

Section 5 of the paper observes that *the same chain* validates differently
across applications: Chrome succeeds by completing the chain from its own
trust store, while OpenSSL-style validation over the presented chain fails
when unnecessary certificates break the presented sequence.  These policies
model exactly that divergence:

* :class:`BrowserPolicy` — path building from the leaf using any presented
  certificate plus locally known intermediates/anchors; unnecessary
  certificates are simply ignored.
* :class:`StrictPresentedChainPolicy` — the presented order must itself
  form the trust path (leaf → … → anchor); any stray certificate breaks it.
* :class:`PermissivePolicy` — accepts anything (IoT-ish clients and tools
  invoked with verification disabled), which is why the paper still sees
  ~56 % established connections on completely broken chains.

Because the pipeline is structured-record based, "signature verification"
is simulated from generator ground truth: a child verifies under a parent
when the child records the parent's signing key id (see
``repro.x509.generation``); it degrades to name chaining when key ids are
absent, exactly mirroring what a log-based observer can know.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import Optional, Sequence

from ..truststores.registry import PublicDBRegistry
from ..x509.certificate import Certificate

__all__ = [
    "ValidationStatus",
    "ValidationResult",
    "ValidationPolicy",
    "BrowserPolicy",
    "StrictPresentedChainPolicy",
    "PermissivePolicy",
    "signature_verifies",
]

_MAX_PATH_LENGTH = 16


class ValidationStatus(str, Enum):
    OK = "ok"
    EMPTY_CHAIN = "empty_chain"
    EXPIRED = "expired"
    UNKNOWN_CA = "unknown_ca"
    BROKEN_CHAIN = "broken_chain"
    SELF_SIGNED = "self_signed"


@dataclass(frozen=True, slots=True)
class ValidationResult:
    status: ValidationStatus
    #: The trust path actually used, leaf first (empty on failure).
    path: tuple[Certificate, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status is ValidationStatus.OK


def signature_verifies(child: Certificate, parent: Certificate) -> bool:
    """Simulated cryptographic check: did ``parent``'s key sign ``child``?

    Uses generator ground truth (signing key ids) when available; otherwise
    falls back to RFC 5280 name chaining, the only signal in log data.
    """
    parent_kid = (parent.extensions.subject_key_id.key_id
                  if parent.extensions.subject_key_id else None)
    if child.signing_key_id is not None and parent_kid is not None:
        return child.signing_key_id == parent_kid
    return parent.issued(child)


class ValidationPolicy(ABC):
    """A client's procedure for deciding whether to trust a presented chain."""

    name: str = "abstract"

    @abstractmethod
    def validate(self, presented: Sequence[Certificate], *,
                 at: datetime) -> ValidationResult:
        """Validate a presented (wire-order, leaf-first) chain at time ``at``."""


class PermissivePolicy(ValidationPolicy):
    """Accepts any non-empty chain without inspection."""

    name = "permissive"

    def validate(self, presented: Sequence[Certificate], *,
                 at: datetime) -> ValidationResult:
        if not presented:
            return ValidationResult(ValidationStatus.EMPTY_CHAIN)
        return ValidationResult(ValidationStatus.OK, tuple(presented[:1]),
                                "accepted without verification")


class BrowserPolicy(ValidationPolicy):
    """Chrome-style validation: build *some* path from the leaf to a local
    trust anchor, drawing on presented certificates and the local store.

    The first presented certificate is taken as the server certificate
    (RFC 8446 §4.4.2); everything else is merely candidate path material.
    """

    name = "browser"

    def __init__(self, registry: PublicDBRegistry, *,
                 extra_anchors: Sequence[Certificate] = (),
                 check_validity_period: bool = True):
        self.registry = registry
        self._extra_anchor_keys = {
            tuple(sorted(a.subject.normalized())) for a in extra_anchors
        }
        self._extra_anchors = list(extra_anchors)
        self.check_validity_period = check_validity_period

    def _is_anchor(self, certificate: Certificate) -> bool:
        if self.registry.is_trust_anchor_name(certificate.subject):
            return True
        return tuple(sorted(certificate.subject.normalized())) in self._extra_anchor_keys

    def _anchor_for_issuer(self, certificate: Certificate) -> Optional[Certificate]:
        """A store anchor whose subject matches this certificate's issuer."""
        for store in self.registry.stores:
            for entry in store.anchors_for_subject(certificate.issuer):
                return entry.certificate
        for anchor in self._extra_anchors:
            if anchor.issued(certificate):
                return anchor
        return None

    def validate(self, presented: Sequence[Certificate], *,
                 at: datetime) -> ValidationResult:
        if not presented:
            return ValidationResult(ValidationStatus.EMPTY_CHAIN)
        leaf = presented[0]
        if self.check_validity_period and not leaf.is_valid_at(at):
            return ValidationResult(ValidationStatus.EXPIRED, (),
                                    "leaf outside validity period")
        path: list[Certificate] = [leaf]
        current = leaf
        seen = {leaf.fingerprint}
        while len(path) < _MAX_PATH_LENGTH:
            if self._is_anchor(current):
                return ValidationResult(ValidationStatus.OK, tuple(path))
            anchor = self._anchor_for_issuer(current)
            if anchor is not None and signature_verifies(current, anchor):
                path.append(anchor)
                return ValidationResult(ValidationStatus.OK, tuple(path))
            parent = self._find_parent(current, presented, seen, at)
            if parent is None:
                if current.is_self_signed:
                    return ValidationResult(ValidationStatus.SELF_SIGNED, (),
                                            "self-signed, not in trust store")
                return ValidationResult(
                    ValidationStatus.UNKNOWN_CA, (),
                    f"no issuer found for {current.short_name()!r}")
            seen.add(parent.fingerprint)
            path.append(parent)
            current = parent
        return ValidationResult(ValidationStatus.BROKEN_CHAIN, (),
                                "path length limit exceeded")

    def _find_parent(self, child: Certificate, presented: Sequence[Certificate],
                     seen: set[str], at: datetime) -> Optional[Certificate]:
        for candidate in presented:
            if candidate.fingerprint in seen:
                continue
            if candidate.issued(child) and signature_verifies(child, candidate):
                if self.check_validity_period and not candidate.is_valid_at(at):
                    continue
                return candidate
        return None


class StrictPresentedChainPolicy(ValidationPolicy):
    """OpenSSL-like validation over the presented sequence only.

    Requires every adjacent pair to chain (issuer–subject *and* signature)
    and the final certificate to be, or be issued by, a trusted anchor.
    A single unnecessary certificate anywhere in the sequence breaks it —
    the failure mode behind the paper's §4.2/§5 establishment-rate gap.
    """

    name = "strict"

    def __init__(self, registry: PublicDBRegistry, *,
                 extra_anchors: Sequence[Certificate] = (),
                 check_validity_period: bool = True):
        self.registry = registry
        self._extra_anchor_keys = {
            tuple(sorted(a.subject.normalized())) for a in extra_anchors
        }
        self.check_validity_period = check_validity_period

    def _anchored(self, certificate: Certificate) -> bool:
        for dn in (certificate.subject, certificate.issuer):
            if self.registry.is_trust_anchor_name(dn):
                return True
            if tuple(sorted(dn.normalized())) in self._extra_anchor_keys:
                return True
        return False

    def validate(self, presented: Sequence[Certificate], *,
                 at: datetime) -> ValidationResult:
        if not presented:
            return ValidationResult(ValidationStatus.EMPTY_CHAIN)
        if self.check_validity_period:
            for certificate in presented:
                if not certificate.is_valid_at(at):
                    return ValidationResult(
                        ValidationStatus.EXPIRED, (),
                        f"{certificate.short_name()!r} outside validity period")
        for child, parent in zip(presented, presented[1:]):
            if not (parent.issued(child) and signature_verifies(child, parent)):
                return ValidationResult(
                    ValidationStatus.BROKEN_CHAIN, (),
                    f"{parent.short_name()!r} did not issue {child.short_name()!r}")
        last = presented[-1]
        if len(presented) == 1 and last.is_self_signed and not self._anchored(last):
            return ValidationResult(ValidationStatus.SELF_SIGNED, (),
                                    "single self-signed certificate")
        if not self._anchored(last):
            return ValidationResult(ValidationStatus.UNKNOWN_CA, (),
                                    "chain does not terminate at a trusted anchor")
        return ValidationResult(ValidationStatus.OK, tuple(presented))
