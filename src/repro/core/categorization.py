"""Certificate chain categorisation (§3.2.2, Table 2).

Chains are partitioned into four categories:

* **public-DB-only** — every certificate issued by a public-DB issuer,
* **non-public-DB-only** — every certificate issued by a non-public-DB
  issuer, excluding TLS interception,
* **hybrid** — a mix of both issuer classes,
* **TLS interception** — chains containing certificates attributable to an
  identified interception entity (takes precedence over the other three).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Optional, Sequence, Set

from ..x509.dn import DistinguishedName
from .chain import ObservedChain
from .classification import CertificateClassifier

__all__ = ["ChainCategory", "CategorizedChains", "ChainCategorizer"]


class ChainCategory(str, Enum):
    PUBLIC_ONLY = "public-db-only"
    NON_PUBLIC_ONLY = "non-public-db-only"
    HYBRID = "hybrid"
    INTERCEPTION = "tls-interception"


def _dn_key(dn: DistinguishedName) -> tuple:
    return dn.sorted_key()


@dataclass
class CategorizedChains:
    """Chains bucketed by category, with Table 2-style aggregates."""

    by_category: Dict[ChainCategory, list[ObservedChain]] = field(
        default_factory=lambda: {c: [] for c in ChainCategory})

    def add(self, category: ChainCategory, chain: ObservedChain) -> None:
        self.by_category[category].append(chain)

    def chains(self, category: ChainCategory) -> list[ObservedChain]:
        return self.by_category[category]

    def chain_count(self, category: ChainCategory) -> int:
        return len(self.by_category[category])

    def connection_count(self, category: ChainCategory) -> int:
        return sum(c.usage.connections for c in self.by_category[category])

    def client_ip_count(self, category: ChainCategory) -> int:
        # A single n-ary union: per-chain |= re-hashes the growing
        # accumulator once per chain, which dominates Table 2 rendering on
        # large corpora.
        return len(set().union(
            *(chain.usage.client_ips for chain in self.by_category[category])))

    def port_distribution(self, category: ChainCategory) -> Counter:
        ports: Counter = Counter()
        for chain in self.by_category[category]:
            ports += chain.usage.ports
        return ports

    @property
    def total_chains(self) -> int:
        return sum(len(chains) for chains in self.by_category.values())

    def summary_rows(self) -> list[dict]:
        """Table 2: chains / connections / client IPs per category."""
        rows = []
        for category in (ChainCategory.NON_PUBLIC_ONLY, ChainCategory.HYBRID,
                         ChainCategory.INTERCEPTION, ChainCategory.PUBLIC_ONLY):
            rows.append({
                "category": category.value,
                "chains": self.chain_count(category),
                "connections": self.connection_count(category),
                "client_ips": self.client_ip_count(category),
            })
        return rows


class ChainCategorizer:
    """Assigns each observed chain to its §3.2.2 category."""

    def __init__(self, classifier: CertificateClassifier,
                 interception_name_keys: Optional[Set[tuple]] = None):
        self.classifier = classifier
        self.interception_name_keys = interception_name_keys or set()

    def category(self, chain: ObservedChain) -> ChainCategory:
        if self._is_interception(chain):
            return ChainCategory.INTERCEPTION
        profile = self.classifier.classify_chain(chain.certificates)
        if profile.all_public:
            return ChainCategory.PUBLIC_ONLY
        if profile.all_non_public:
            return ChainCategory.NON_PUBLIC_ONLY
        return ChainCategory.HYBRID

    def _is_interception(self, chain: ObservedChain) -> bool:
        if not self.interception_name_keys:
            return False
        for certificate in chain.certificates:
            if _dn_key(certificate.issuer) in self.interception_name_keys:
                return True
            if _dn_key(certificate.subject) in self.interception_name_keys:
                return True
        return False

    def categorize(self, chains: Iterable[ObservedChain]) -> CategorizedChains:
        result = CategorizedChains()
        for chain in chains:
            result.add(self.category(chain), chain)
        return result
