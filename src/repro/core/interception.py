"""TLS interception detection (§3.2.1, Table 1, Appendix B).

Interception appliances re-sign traffic with their own CA, so the client
(and the campus monitor) sees a substitute chain whose issuer never appears
in public databases.  The paper detects this by (1) filtering connections
whose leaf issuer is outside the major trust stores and (2) asking CT
whether a *different* issuer is on record for the same domain and validity
window; a mismatch flags possible interception, confirmed by manual
investigation.  The manual step is modelled by :class:`VendorDirectory`,
a curated keyword → (vendor, category) table equivalent to the authors'
web-search notes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from ..ct.crtsh import CrtShIndex
from ..faults.injector import FaultInjector
from ..obs import instruments
from ..resilience.breaker import CircuitBreaker
from ..resilience.errors import CircuitOpenError, CTUnavailableError
from ..x509.certificate import Certificate
from ..x509.dn import DistinguishedName
from .chain import ChainUsage, ObservedChain
from .classification import CertificateClassifier, IssuerClass

__all__ = [
    "CATEGORY_ORDER",
    "VendorDirectory",
    "InterceptionIssuer",
    "InterceptionReport",
    "InterceptionDetector",
]

CATEGORY_ORDER: tuple[str, ...] = (
    "Security & Network",
    "Business & Corporate",
    "Health & Education",
    "Government & Public Service",
    "Bank & Finance",
    "Other",
)


def _dn_key(dn: DistinguishedName) -> tuple:
    return dn.sorted_key()


class VendorDirectory:
    """Keyword lookup standing in for the paper's manual investigation.

    Keywords are matched case-insensitively against the issuer's O and CN
    attributes.  Unmatched issuers fall into the ``Other`` category, as the
    paper's Table 1 does for unidentifiable entities.
    """

    def __init__(self, entries: Iterable[tuple[str, str, str]] = ()):
        #: keyword (lowercase) -> (vendor, category)
        self._by_keyword: Dict[str, tuple[str, str]] = {}
        for keyword, vendor, category in entries:
            self.add(keyword, vendor, category)

    def add(self, keyword: str, vendor: str, category: str) -> None:
        if category not in CATEGORY_ORDER:
            raise ValueError(f"unknown interception category {category!r}")
        self._by_keyword[keyword.lower()] = (vendor, category)

    def lookup(self, issuer: DistinguishedName) -> tuple[str, str]:
        """Returns (vendor, category); unknown issuers map to 'Other'."""
        haystacks = [value.lower() for value in (
            issuer.organization, issuer.common_name) if value]
        for keyword, (vendor, category) in self._by_keyword.items():
            if any(keyword in haystack for haystack in haystacks):
                return vendor, category
        fallback = issuer.organization or issuer.common_name or "unknown"
        return fallback, "Other"

    def __len__(self) -> int:
        return len(self._by_keyword)


@dataclass(frozen=True, slots=True)
class InterceptionIssuer:
    issuer: DistinguishedName
    vendor: str
    category: str


@dataclass
class InterceptionReport:
    """Detection output: issuers, the flagged chains, and Table 1 rows."""

    issuers: list[InterceptionIssuer] = field(default_factory=list)
    #: chain key -> the issuer that flagged it
    flagged_chains: Dict[tuple[str, ...], InterceptionIssuer] = field(
        default_factory=dict)
    #: every DN (issuer and CA subjects) attributable to interception CAs,
    #: used downstream by chain categorisation.
    issuer_name_keys: Set[tuple] = field(default_factory=set)
    #: chains whose CT evidence could not be retrieved (outage / breaker
    #: open) — the *degraded* verdict: no interception claim either way.
    degraded_chains: list = field(default_factory=list)

    def category_table(self, chains: Dict[tuple[str, ...], ObservedChain]
                       ) -> list[dict]:
        """Table 1: per category — issuing *entities* (vendors, as resolved
        by the manual-investigation directory), % connections, client IPs.

        The paper's 80 issuers are organisations, not distinct issuer DNs:
        one appliance fleet can mint many per-host issuer names.
        """
        vendors_per_category: Dict[str, set] = {c: set() for c in CATEGORY_ORDER}
        connections_per_category: Counter = Counter()
        usages: Dict[str, list] = {c: [] for c in CATEGORY_ORDER}
        for chain_key, issuer in self.flagged_chains.items():
            chain = chains.get(chain_key)
            if chain is None:
                continue
            vendors_per_category[issuer.category].add(issuer.vendor)
            connections_per_category[issuer.category] += chain.usage.connections
            usages[issuer.category].append(chain.usage)
        total_connections = sum(connections_per_category.values()) or 1
        rows = []
        for category in CATEGORY_ORDER:
            rows.append({
                "category": category,
                "issuers": len(vendors_per_category[category]),
                "pct_connections": 100.0 * connections_per_category[category]
                / total_connections,
                "client_ips": ChainUsage.distinct_clients(usages[category]),
            })
        return rows

    @property
    def issuer_count(self) -> int:
        """Distinct issuer DNs flagged (one vendor can mint several)."""
        return len(self.issuers)

    def vendor_count(self) -> int:
        """Distinct issuing entities — the paper's '80 issuers' unit."""
        return len({issuer.vendor for issuer in self.issuers})

    @property
    def degraded_count(self) -> int:
        """Chains the detector could not check because CT was unavailable."""
        return len(self.degraded_chains)


class InterceptionDetector:
    """CT-mismatch interception detection over observed chains.

    CT is a *remote* dependency in the real pipeline, so every lookup can
    go through a :class:`CircuitBreaker` and a fault injector: when CT is
    unavailable (or the breaker is open) the affected chain gets the
    degraded ``ct_unavailable`` verdict — it is **not** flagged (no
    interception claim without CT evidence, mirroring the Appendix B
    absent-from-CT caveat) and is listed on
    ``InterceptionReport.degraded_chains`` so the loss of coverage is
    visible, never silent.
    """

    def __init__(self, classifier: CertificateClassifier,
                 ct_index: CrtShIndex,
                 directory: Optional[VendorDirectory] = None,
                 *, breaker: Optional[CircuitBreaker] = None,
                 faults: Optional[FaultInjector] = None):
        self.classifier = classifier
        self.ct_index = ct_index
        self.directory = directory or VendorDirectory()
        self.breaker = breaker
        self.faults = faults

    def detect(self, chains: Iterable[ObservedChain]) -> InterceptionReport:
        report = InterceptionReport()
        issuer_seen: Dict[tuple, InterceptionIssuer] = {}
        # CT verdicts are batched per unique (leaf, domain set) evidence
        # key: many chains share one appliance leaf and SNI population, so
        # the fan-out to CT runs once per distinct lookup instead of once
        # per chain.  Only *successful* verdicts are memoised — a degraded
        # chain must re-attempt its lookups so breaker dynamics and the
        # per-chain degraded bookkeeping stay exactly as an unbatched pass.
        verdict_seen: Dict[tuple, bool] = {}
        for chain in chains:
            leaf = chain.leaf
            if leaf is None:
                instruments.INTERCEPTION_CHAINS.inc(verdict="empty_chain")
                continue
            if self.classifier.classify(leaf) is not IssuerClass.NON_PUBLIC_DB:
                instruments.INTERCEPTION_CHAINS.inc(verdict="public_issuer")
                continue
            domains = set(chain.usage.sni_names())
            san = leaf.extensions.subject_alt_name
            if san is not None:
                domains.update(san.dns_names)
            # Sorted so lookup order (and thus per-domain fault draws and
            # any early return) is identical across processes and runs.
            domain_key = tuple(sorted(domains))
            memo_key = (leaf.fingerprint, domain_key)
            cached = verdict_seen.get(memo_key)
            if cached is not None:
                instruments.CT_VERDICT_MEMO_HIT.inc()
                flagged = cached
            else:
                instruments.CT_VERDICT_MEMO_MISS.inc()
                try:
                    flagged = self._flag_via_ct(leaf, domain_key)
                except (CTUnavailableError, CircuitOpenError):
                    instruments.INTERCEPTION_CHAINS.inc(
                        verdict="ct_unavailable")
                    report.degraded_chains.append(chain.key)
                    continue
                verdict_seen[memo_key] = flagged
            if not flagged:
                instruments.INTERCEPTION_CHAINS.inc(verdict="not_flagged")
                continue
            instruments.INTERCEPTION_CHAINS.inc(verdict="flagged")
            key = _dn_key(leaf.issuer)
            issuer = issuer_seen.get(key)
            if issuer is None:
                vendor, category = self.directory.lookup(leaf.issuer)
                issuer = InterceptionIssuer(leaf.issuer, vendor, category)
                issuer_seen[key] = issuer
                report.issuers.append(issuer)
            report.flagged_chains[chain.key] = issuer
            report.issuer_name_keys.add(key)
            # The appliance's intermediates/roots ride along in the same
            # chain; attribute their names to the interception entity too.
            for certificate in chain.certificates[1:]:
                report.issuer_name_keys.add(_dn_key(certificate.subject))
                report.issuer_name_keys.add(_dn_key(certificate.issuer))
        return report

    def _ct_issuers(self, domain: str, validity) -> list[DistinguishedName]:
        """One CT lookup, routed through the fault injector and breaker."""
        def lookup() -> list[DistinguishedName]:
            if self.faults is not None and self.faults.ct_unavailable(domain):
                raise CTUnavailableError(
                    f"CT index unavailable for {domain!r} (injected outage)")
            return self.ct_index.issuers_for_domain(domain,
                                                    overlapping=validity)
        if self.breaker is not None:
            return self.breaker.call(lookup)  # type: ignore[return-value]
        return lookup()

    def _flag_via_ct(self, leaf: Certificate,
                     domains: Sequence[str]) -> bool:
        """True when CT records a different issuer for any domain this
        chain served (pre-sorted by the caller), over the observed
        validity period."""
        observed = _dn_key(leaf.issuer)
        for domain in domains:
            recorded = self._ct_issuers(domain, leaf.validity)
            if not recorded:
                continue  # absent from CT: undetectable (Appendix B caveat)
            if all(_dn_key(issuer) != observed for issuer in recorded):
                return True
        return False
