"""Certificate issuer classification (§3.2.1).

A certificate is *issued by a public-DB issuer* when its issuer —
intermediate or root — is listed in at least one major Web PKI root store
or in CCADB; otherwise it is issued by a *non-public-DB issuer* (including
self-signed certificates absent from those databases).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Sequence

from ..truststores.registry import PublicDBRegistry
from ..x509.certificate import Certificate

__all__ = ["IssuerClass", "CertificateClassifier", "ChainClassProfile"]


class IssuerClass(str, Enum):
    PUBLIC_DB = "public-db"
    NON_PUBLIC_DB = "non-public-db"


@dataclass(frozen=True, slots=True)
class ChainClassProfile:
    """Per-certificate classes for one chain plus convenience aggregates."""

    classes: tuple[IssuerClass, ...]

    @property
    def all_public(self) -> bool:
        return bool(self.classes) and all(
            c is IssuerClass.PUBLIC_DB for c in self.classes)

    @property
    def all_non_public(self) -> bool:
        return bool(self.classes) and all(
            c is IssuerClass.NON_PUBLIC_DB for c in self.classes)

    @property
    def mixed(self) -> bool:
        return bool(self.classes) and not self.all_public and not self.all_non_public

    def count(self, issuer_class: IssuerClass) -> int:
        return sum(1 for c in self.classes if c is issuer_class)


class CertificateClassifier:
    """Caches public/non-public classifications against a registry.

    The cache is keyed by fingerprint: a year of campus traffic revisits the
    same 743,993 certificates hundreds of millions of times, so the
    classification must be O(1) amortised.
    """

    def __init__(self, registry: PublicDBRegistry):
        self.registry = registry
        self._cache: Dict[str, IssuerClass] = {}

    def classify(self, certificate: Certificate) -> IssuerClass:
        cached = self._cache.get(certificate.fingerprint)
        if cached is not None:
            return cached
        if self.registry.issued_by_public_db(certificate):
            result = IssuerClass.PUBLIC_DB
        else:
            result = IssuerClass.NON_PUBLIC_DB
        self._cache[certificate.fingerprint] = result
        return result

    def classify_chain(self, chain: Sequence[Certificate]) -> ChainClassProfile:
        return ChainClassProfile(tuple(self.classify(cert) for cert in chain))

    def chain_anchored_to_public_root(self, chain: Sequence[Certificate]) -> bool:
        """Does the chain terminate at — or name as its final issuer — a
        public trust anchor?  (The 'anchored to a public trust root'
        condition of §4.2.)"""
        if not chain:
            return False
        last = chain[-1]
        return (self.registry.is_trust_anchor_name(last.subject)
                or self.registry.is_trust_anchor_name(last.issuer))

    def preload(self, classes: Dict[str, IssuerClass]) -> None:
        """Adopt classifications computed elsewhere (partition workers).

        Sound because classification is a pure function of the certificate
        and the registry, and every worker holds the same registry — the
        merged map is exactly what this instance would have computed.
        """
        self._cache.update(classes)

    def cached_classes(self) -> Dict[str, IssuerClass]:
        """Snapshot of the fingerprint → class cache (for merge/preload)."""
        return dict(self._cache)

    def cache_size(self) -> int:
        return len(self._cache)
