"""TLS interception middlebox simulation.

Security appliances (Zscaler, FortiGate, …) terminate the client's TLS
session, inspect the plaintext, and re-originate the connection, presenting
a *substitute* chain whose leaf is minted on the fly by the appliance's own
CA for the requested host (§3.2.1, Table 1, Appendix B).  The substitute
issuer never appears in public databases, and typically the appliance ships
a 3-certificate chain (leaf → appliance intermediate → appliance root),
which is why >80 % of interception chains in Figure 1 have length 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Optional, Sequence

from ..x509.certificate import Certificate
from ..x509.generation import CertificateFactory, IssuingAuthority, name

__all__ = ["InterceptionCategory", "InterceptionMiddlebox"]

#: Table 1 categories.
InterceptionCategory = str
CATEGORIES: tuple[InterceptionCategory, ...] = (
    "Security & Network",
    "Business & Corporate",
    "Health & Education",
    "Government & Public Service",
    "Bank & Finance",
    "Other",
)


@dataclass
class InterceptionMiddlebox:
    """One interception issuer: a private CA that re-signs on the fly.

    Minted leaves are cached per host so repeated connections to the same
    domain reuse one substitute chain — matching the small distinct-chain /
    large connection-count ratio of real appliances.
    """

    vendor: str
    category: InterceptionCategory
    factory: CertificateFactory
    #: Number of certificates in the substitute chain (3 is typical).
    chain_depth: int = 3
    #: Some appliances present a bare self-signed substitute instead.
    single_self_signed: bool = False
    #: Others deliver only the minted leaf (distinct issuer/subject) without
    #: its issuing chain — §4.3's non-self-signed single-certificate tail.
    single_leaf_only: bool = False
    root: IssuingAuthority = field(init=False)
    issuing: IssuingAuthority = field(init=False)
    _ladder: list[IssuingAuthority] = field(default_factory=list, init=False)
    _leaf_cache: Dict[str, tuple[Certificate, ...]] = field(default_factory=dict,
                                                            init=False)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown interception category {self.category!r}")
        root_dn = name(f"{self.vendor} Root CA", o=self.vendor)
        self.root = self.factory.root(root_dn, lifetime_years=15)
        self._ladder = [self.root]
        authority = self.root
        # chain_depth counts leaf + intermediates + root.
        for level in range(max(self.chain_depth - 2, 0)):
            label = f"{self.vendor} Intermediate CA {level + 1}"
            authority = self.factory.intermediate(
                authority, name(label, o=self.vendor), path_len=None)
            self._ladder.append(authority)
        self.issuing = authority

    def substitute_chain(self, host: str) -> tuple[Certificate, ...]:
        """The chain the appliance presents in place of the origin's."""
        cached = self._leaf_cache.get(host)
        if cached is not None:
            return cached
        # Minted certificates start at the factory epoch so they cover the
        # whole observation window (appliances re-mint on rotation).
        if self.single_self_signed:
            chain: tuple[Certificate, ...] = (
                self.factory.self_signed(name(host, o=self.vendor),
                                         lifetime_days=520,
                                         not_before=self.factory.epoch),
            )
        elif self.single_leaf_only:
            chain = (self.factory.leaf(self.issuing, name(host, o=self.vendor),
                                       dns_names=(host,), lifetime_days=520,
                                       not_before=self.factory.epoch),)
        else:
            leaf = self.factory.leaf(self.issuing, name(host, o=self.vendor),
                                     dns_names=(host,), lifetime_days=520,
                                     not_before=self.factory.epoch)
            chain = (leaf, *self._authority_chain())
        self._leaf_cache[host] = chain
        return chain

    def _authority_chain(self) -> tuple[Certificate, ...]:
        """Issuing intermediate(s) up to and including the appliance root,
        in wire order (deepest intermediate first, root last)."""
        return tuple(ia.certificate for ia in reversed(self._ladder))

    def intercept(self, original_chain: Sequence[Certificate],
                  host: str) -> tuple[Certificate, ...]:
        """What the monitor sees client-side when this appliance is inline.

        The original chain is consumed appliance-side and never reaches the
        campus border, hence never the logs — only the substitute does.
        """
        del original_chain  # inspected appliance-side; invisible to the monitor
        return self.substitute_chain(host)


def build_middlebox(vendor: str, category: InterceptionCategory, *,
                    seed: int | str = 0, chain_depth: int = 3,
                    single_self_signed: bool = False) -> InterceptionMiddlebox:
    """Convenience constructor with a deterministic per-vendor factory."""
    factory = CertificateFactory(seed=f"middlebox:{vendor}:{seed}")
    return InterceptionMiddlebox(vendor, category, factory,
                                 chain_depth=chain_depth,
                                 single_self_signed=single_self_signed)
