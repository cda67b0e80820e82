"""Server-level chain analysis: who serves multiple distinct chains, and why.

§4.2 observes that 19 servers presented multiple distinct hybrid chains
over the year and attributes the behaviour to two causes: (1) leaf
replacement on expiry/renewal, and (2) inclusion of *different* unnecessary
certificates across connections.  This module recovers both findings from
logs alone: it groups observed chains by server endpoint, pairs up the
chains each endpoint served, and classifies each pair's relationship.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..x509.certificate import Certificate
from .chain import ObservedChain
from .matching import analyze_structure

__all__ = ["ChainChangeKind", "ServerChainGroup", "MultiChainReport",
           "group_by_server", "analyze_multi_chain_servers"]


class ChainChangeKind(str, Enum):
    """Why one server served two different chains."""

    LEAF_REPLACEMENT = "leaf-replacement"
    DIFFERENT_UNNECESSARY = "different-unnecessary-certificates"
    RESTRUCTURED = "restructured"


def _dn_key(dn) -> tuple:
    return tuple(sorted(dn.normalized()))


@dataclass
class ServerChainGroup:
    """All distinct chains one server endpoint delivered."""

    server_key: str
    chains: List[ObservedChain] = field(default_factory=list)

    @property
    def is_multi_chain(self) -> bool:
        return len(self.chains) > 1

    def pairwise_changes(self, *, disclosures=None
                         ) -> List[Tuple[ObservedChain, ObservedChain,
                                         ChainChangeKind]]:
        """Classify every chain pair this server served."""
        changes = []
        ordered = sorted(
            self.chains,
            key=lambda c: (c.usage.first_seen or 0.0, c.key))
        for i, first in enumerate(ordered):
            for second in ordered[i + 1:]:
                changes.append((first, second,
                                classify_change(first, second,
                                                disclosures=disclosures)))
        return changes


def classify_change(first: ObservedChain, second: ObservedChain, *,
                    disclosures=None) -> ChainChangeKind:
    """Relate two chains from the same server (§4.2's two causes).

    * **leaf replacement** — the leaves differ but name the same issuer
      (a renewal), and the rest of the chain is unchanged;
    * **different unnecessary certificates** — both chains contain the same
      complete matched path; only material outside it differs;
    * **restructured** — anything else (migration, re-issuance, breakage).
    """
    if _is_leaf_replacement(first, second):
        return ChainChangeKind.LEAF_REPLACEMENT
    if _same_path_different_extras(first, second, disclosures):
        return ChainChangeKind.DIFFERENT_UNNECESSARY
    return ChainChangeKind.RESTRUCTURED


def _is_leaf_replacement(first: ObservedChain, second: ObservedChain) -> bool:
    a, b = first.certificates, second.certificates
    if not a or not b or len(a) != len(b):
        return False
    leaf_a, leaf_b = a[0], b[0]
    if leaf_a.fingerprint == leaf_b.fingerprint:
        return False
    if _dn_key(leaf_a.issuer) != _dn_key(leaf_b.issuer):
        return False
    rest_a = tuple(c.fingerprint for c in a[1:])
    rest_b = tuple(c.fingerprint for c in b[1:])
    return rest_a == rest_b


def _same_path_different_extras(first: ObservedChain, second: ObservedChain,
                                disclosures) -> bool:
    structure_a = analyze_structure(first.certificates,
                                    disclosures=disclosures)
    structure_b = analyze_structure(second.certificates,
                                    disclosures=disclosures)
    path_a = tuple(c.fingerprint for c in structure_a.path_certificates())
    path_b = tuple(c.fingerprint for c in structure_b.path_certificates())
    if not path_a or path_a != path_b:
        return False
    extras_a = tuple(c.fingerprint
                     for c in structure_a.unnecessary_certificates())
    extras_b = tuple(c.fingerprint
                     for c in structure_b.unnecessary_certificates())
    return extras_a != extras_b


def group_by_server(chains: Iterable[ObservedChain]) -> List[ServerChainGroup]:
    """Group chains by server endpoint (the responder IPs that served them).

    A chain served from several IPs joins every group; groups keyed by the
    sorted server-IP set, which is how a log-only observer identifies "the
    same server".
    """
    groups: Dict[str, ServerChainGroup] = {}
    for chain in chains:
        key = ",".join(sorted(chain.usage.server_names())) or "?"
        group = groups.get(key)
        if group is None:
            group = ServerChainGroup(key)
            groups[key] = group
        group.chains.append(chain)
    return list(groups.values())


@dataclass
class MultiChainReport:
    groups: List[ServerChainGroup]
    changes: List[Tuple[str, ChainChangeKind]]

    @property
    def multi_chain_servers(self) -> int:
        return sum(1 for g in self.groups if g.is_multi_chain)

    def change_counts(self) -> Dict[ChainChangeKind, int]:
        counts: Dict[ChainChangeKind, int] = defaultdict(int)
        for _, kind in self.changes:
            counts[kind] += 1
        return dict(counts)


def analyze_multi_chain_servers(chains: Iterable[ObservedChain], *,
                                disclosures=None) -> MultiChainReport:
    groups = group_by_server(chains)
    changes: List[Tuple[str, ChainChangeKind]] = []
    for group in groups:
        if not group.is_multi_chain:
            continue
        for _, _, kind in group.pairwise_changes(disclosures=disclosures):
            changes.append((group.server_key, kind))
    return MultiChainReport(groups=groups, changes=changes)
