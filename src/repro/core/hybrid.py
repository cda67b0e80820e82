"""Hybrid certificate chain analysis (§4.2; Tables 3, 6, 7; Figures 4, 6).

Hybrid chains mix certificates from public-DB and non-public-DB issuers.
The paper sorts them into three top-level groups:

1. the chain **is** a complete matched path (36 chains: 26 non-public
   leaves anchored to public roots + 10 public paths chained to a private
   re-issue of the root — the Scalyr/Canal+ pattern),
2. the chain **contains** a complete matched path plus unnecessary
   certificates (70 chains, Figure 4),
3. the chain has **no** complete matched path (215 chains, Table 7,
   Figure 6).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..x509.certificate import Certificate
from ..x509.dn import DistinguishedName
from .chain import ChainUsage, ObservedChain
from .classification import CertificateClassifier, IssuerClass
from .crosssign import CrossSignDisclosures
from .matching import (ChainStructure, Segment, analyze_structure,
                       is_leaf_like, pack_structure, unpack_structure)

__all__ = [
    "HybridCategory",
    "CompletePathKind",
    "NoPathCategory",
    "EntityKind",
    "classify_entity",
    "HybridChainAnalysis",
    "pack_analysis",
    "unpack_analysis",
    "HybridReport",
    "HybridAnalyzer",
    "CellLabel",
]


class HybridCategory(str, Enum):
    COMPLETE_PATH_ONLY = "is-complete-matched-path"
    CONTAINS_COMPLETE_PATH = "contains-complete-matched-path"
    NO_COMPLETE_PATH = "no-complete-matched-path"


class CompletePathKind(str, Enum):
    """Table 3's split of the chains that are exactly a complete path."""

    NON_PUBLIC_CHAINED_TO_PUBLIC = "non-pub-chained-to-pub"
    PUBLIC_CHAINED_TO_PRIVATE = "pub-chained-to-prv"
    OTHER = "other"


class NoPathCategory(str, Enum):
    """Table 7's taxonomy of chains without a complete matched path."""

    SELF_SIGNED_LEAF_THEN_MISMATCHES = "nonpub-self-signed-leaf+mismatches"
    SELF_SIGNED_LEAF_THEN_VALID_SUBCHAIN = "nonpub-self-signed-leaf+valid-subchain"
    ALL_MISMATCHED = "all-pairs-mismatched"
    PARTIAL_MISMATCHED = "partial-pairs-mismatched"
    ROOT_APPENDED_TO_PUBLIC_SUBCHAIN = "nonpub-root-appended-to-public-subchain"
    ROOT_AND_MISMATCHED = "nonpub-root+mismatched-pairs"


class EntityKind(str, Enum):
    """Table 6's operator split for non-public leaves on public roots."""

    GOVERNMENT = "Government"
    CORPORATE = "Corporate"


_GOVERNMENT_MARKERS = (
    "government", "veterans affairs", "federal", "u.s.", "gpki", "klid",
    "korea", "iti", "icp-brasil", "instituto nacional", "ministry",
    "department of",
)

#: Commercial operators whose names would otherwise trip a government
#: marker (Table 6 files SignKorea under Corporate despite the "Korea").
_CORPORATE_OVERRIDES = ("signkorea", "symantec", "scalyr", "canal")


def classify_entity(dn: DistinguishedName) -> EntityKind:
    """Heuristic operator classification from DN text — the analyzer's
    equivalent of the paper's manual issuer research (Appendix F.1)."""
    haystack = " ".join(v for v in (
        dn.organization, dn.organizational_unit, dn.common_name) if v).lower()
    if any(marker in haystack for marker in _CORPORATE_OVERRIDES):
        return EntityKind.CORPORATE
    if any(marker in haystack for marker in _GOVERNMENT_MARKERS):
        return EntityKind.GOVERNMENT
    return EntityKind.CORPORATE


class CellLabel(str, Enum):
    """Figure 4 cell vocabulary: segment kind × issuer-class makeup."""

    PUB_COMPLETE = "Pub. Complete"
    NON_PUB_COMPLETE = "Non-Pub. Complete"
    HYBRID_COMPLETE = "Hybrid Complete"
    PUB_PARTIAL = "Pub. Partial"
    NON_PUB_PARTIAL = "Non-Pub. Partial"
    HYBRID_PARTIAL = "Hybrid Partial"
    PUB_SINGLE = "Pub. Single"
    NON_PUB_SINGLE = "Non-Pub. Single"
    SINGLE_LEAF = "Single Leaf"


@dataclass
class HybridChainAnalysis:
    """Everything §4.2 derives from one hybrid chain."""

    chain: ObservedChain
    structure: ChainStructure
    classes: tuple[IssuerClass, ...]
    category: HybridCategory
    complete_kind: Optional[CompletePathKind] = None
    no_path_category: Optional[NoPathCategory] = None
    anchored_to_public_root: bool = False
    entity: Optional[EntityKind] = None

    @property
    def mismatch_ratio(self) -> float:
        return self.structure.mismatch_ratio

    @property
    def leaf_missing_issuer(self) -> bool:
        """Public-DB leaf present but nothing in the chain issues it —
        the 56-chain sub-finding inside the no-path group."""
        if self.category is not HybridCategory.NO_COMPLETE_PATH:
            return False
        certs = self.structure.certificates
        if not certs or len(certs) < 2:
            return False
        leaf = certs[0]
        if self.classes[0] is not IssuerClass.PUBLIC_DB or leaf.is_self_signed:
            return False
        return not any(other.issued(leaf) for other in certs[1:])


def pack_analysis(analysis: HybridChainAnalysis) -> tuple:
    """Encode one hybrid verdict as pickle-cheap primitives.

    ``(chain key, packed structure, classes, category, complete kind,
    no-path category, anchored, entity)`` — no certificates or chains,
    so it crosses a pool or store boundary as bytes and small tuples;
    :func:`unpack_analysis` reattaches it to a live chain map.
    """
    return (analysis.chain.key, pack_structure(analysis.structure),
            analysis.classes, analysis.category, analysis.complete_kind,
            analysis.no_path_category, analysis.anchored_to_public_root,
            analysis.entity)


def unpack_analysis(chains: Mapping[tuple, ObservedChain],
                    packed: tuple) -> HybridChainAnalysis:
    """Rebuild a :func:`pack_analysis` encoding against ``chains``."""
    (key, structure, classes, category, complete_kind, no_path_category,
     anchored, entity) = packed
    chain = chains[key]
    return HybridChainAnalysis(
        chain=chain, structure=unpack_structure(chain.certificates, structure),
        classes=classes, category=category, complete_kind=complete_kind,
        no_path_category=no_path_category, anchored_to_public_root=anchored,
        entity=entity)


@dataclass
class HybridReport:
    analyses: List[HybridChainAnalysis] = field(default_factory=list)

    def by_category(self, category: HybridCategory) -> list[HybridChainAnalysis]:
        return [a for a in self.analyses if a.category is category]

    # -- Table 3 ---------------------------------------------------------------

    def table3_rows(self) -> list[dict]:
        complete = self.by_category(HybridCategory.COMPLETE_PATH_ONLY)
        non_pub_to_pub = [a for a in complete if a.complete_kind is
                          CompletePathKind.NON_PUBLIC_CHAINED_TO_PUBLIC]
        pub_to_prv = [a for a in complete if a.complete_kind is
                      CompletePathKind.PUBLIC_CHAINED_TO_PRIVATE]
        other = [a for a in complete if a.complete_kind is CompletePathKind.OTHER]
        rows = [
            {"category": "(1) Chain is a complete matched path",
             "subcategory": "Non-pub. chained to Pub.",
             "chains": len(non_pub_to_pub)},
            {"category": "(1) Chain is a complete matched path",
             "subcategory": "Pub. chained to Prv.",
             "chains": len(pub_to_prv)},
        ]
        if other:
            rows.append({"category": "(1) Chain is a complete matched path",
                         "subcategory": "Other", "chains": len(other)})
        rows.extend([
            {"category": "(2) Chain contains a complete matched path",
             "subcategory": "-",
             "chains": len(self.by_category(HybridCategory.CONTAINS_COMPLETE_PATH))},
            {"category": "(3) No complete matched path",
             "subcategory": "-",
             "chains": len(self.by_category(HybridCategory.NO_COMPLETE_PATH))},
            {"category": "Total", "subcategory": "",
             "chains": len(self.analyses)},
        ])
        return rows

    def establishment_rate(self, category: HybridCategory) -> float:
        chains = self.by_category(category)
        connections = sum(a.chain.usage.connections for a in chains)
        established = sum(a.chain.usage.established for a in chains)
        if connections == 0:
            return 0.0
        return 100.0 * established / connections

    # -- Table 6 ---------------------------------------------------------------

    def table6_rows(self) -> list[dict]:
        anchored = [
            a for a in self.by_category(HybridCategory.COMPLETE_PATH_ONLY)
            if a.complete_kind is CompletePathKind.NON_PUBLIC_CHAINED_TO_PUBLIC
        ]
        counts = Counter(a.entity for a in anchored)
        return [
            {"category": "Corporate",
             "chains": counts.get(EntityKind.CORPORATE, 0)},
            {"category": "Government",
             "chains": counts.get(EntityKind.GOVERNMENT, 0)},
        ]

    # -- Table 7 ---------------------------------------------------------------

    def table7_rows(self) -> list[dict]:
        no_path = self.by_category(HybridCategory.NO_COMPLETE_PATH)
        counts = Counter(a.no_path_category for a in no_path)
        order = (
            NoPathCategory.SELF_SIGNED_LEAF_THEN_MISMATCHES,
            NoPathCategory.SELF_SIGNED_LEAF_THEN_VALID_SUBCHAIN,
            NoPathCategory.ALL_MISMATCHED,
            NoPathCategory.PARTIAL_MISMATCHED,
            NoPathCategory.ROOT_APPENDED_TO_PUBLIC_SUBCHAIN,
            NoPathCategory.ROOT_AND_MISMATCHED,
        )
        return [{"category": category.value, "chains": counts.get(category, 0)}
                for category in order]

    def missing_issuer_stats(self) -> dict:
        """The 56-chain sub-finding: public leaf with no issuing intermediate."""
        matching = [a for a in self.analyses if a.leaf_missing_issuer]
        connections = sum(a.chain.usage.connections for a in matching)
        established = sum(a.chain.usage.established for a in matching)
        clients = ChainUsage.distinct_clients(a.chain.usage for a in matching)
        return {
            "chains": len(matching),
            "connections": connections,
            "established_pct": 100.0 * established / connections if connections else 0.0,
            "client_ips": clients,
        }

    # -- Figure 4 ---------------------------------------------------------------

    def figure4_grid(self) -> list[list[CellLabel]]:
        """One column per contains-complete-path chain; index 0 is the
        bottom of the hierarchy (first delivered certificate)."""
        columns: list[list[CellLabel]] = []
        for analysis in self.by_category(HybridCategory.CONTAINS_COMPLETE_PATH):
            columns.append(_column_labels(analysis))
        columns.sort(key=len, reverse=True)
        return columns

    def figure4_label_counts(self) -> Counter:
        counts: Counter = Counter()
        for column in self.figure4_grid():
            counts.update(column)
        return counts

    # -- Figure 6 ---------------------------------------------------------------

    def figure6_histogram(self, bins: int = 10) -> list[tuple[float, int]]:
        """(bin upper edge, count) over the no-path chains' mismatch ratios."""
        histogram = [0] * bins
        for analysis in self.by_category(HybridCategory.NO_COMPLETE_PATH):
            ratio = analysis.mismatch_ratio
            index = min(int(ratio * bins), bins - 1) if ratio < 1.0 else bins - 1
            histogram[index] += 1
        return [((i + 1) / bins, count) for i, count in enumerate(histogram)]

    def high_mismatch_share(self, threshold: float = 0.5) -> float:
        no_path = self.by_category(HybridCategory.NO_COMPLETE_PATH)
        if not no_path:
            return 0.0
        high = sum(1 for a in no_path if a.mismatch_ratio >= threshold)
        return 100.0 * high / len(no_path)


def _segment_class(classes: Sequence[IssuerClass],
                   segment: Segment) -> str:
    members = {classes[i] for i in segment.indices()}
    if members == {IssuerClass.PUBLIC_DB}:
        return "pub"
    if members == {IssuerClass.NON_PUBLIC_DB}:
        return "nonpub"
    return "hybrid"


def _column_labels(analysis: HybridChainAnalysis) -> list[CellLabel]:
    labels: list[CellLabel] = []
    structure = analysis.structure
    for index in range(structure.length):
        segment = structure.segment_for_index(index)
        seg_class = _segment_class(analysis.classes, segment)
        if segment.is_singleton:
            if is_leaf_like(structure.certificates[index],
                            structure.certificates):
                labels.append(CellLabel.SINGLE_LEAF)
            elif seg_class == "pub":
                labels.append(CellLabel.PUB_SINGLE)
            else:
                labels.append(CellLabel.NON_PUB_SINGLE)
        elif segment.is_complete_matched_path:
            labels.append({
                "pub": CellLabel.PUB_COMPLETE,
                "nonpub": CellLabel.NON_PUB_COMPLETE,
                "hybrid": CellLabel.HYBRID_COMPLETE,
            }[seg_class])
        else:
            labels.append({
                "pub": CellLabel.PUB_PARTIAL,
                "nonpub": CellLabel.NON_PUB_PARTIAL,
                "hybrid": CellLabel.HYBRID_PARTIAL,
            }[seg_class])
    return labels


class HybridAnalyzer:
    """Runs the §4.2 pipeline over the hybrid chain set.

    ``require_leaf`` is §4.2's rule that a complete matched path must start
    at a valid leaf certificate; disabling it (the §4.3 relaxation) is an
    ablation — several no-path taxonomy cells collapse without it.
    """

    def __init__(self, classifier: CertificateClassifier,
                 disclosures: Optional[CrossSignDisclosures] = None,
                 *, require_leaf: bool = True):
        self.classifier = classifier
        self.disclosures = disclosures
        self.require_leaf = require_leaf

    def analyze(self, chains: Iterable[ObservedChain]) -> HybridReport:
        report = HybridReport()
        for chain in chains:
            report.analyses.append(self.analyze_chain(chain))
        return report

    def analyze_chain(self, chain: ObservedChain) -> HybridChainAnalysis:
        """Analyze one chain, building its structure under this
        analyzer's ``require_leaf`` rule."""
        structure = analyze_structure(chain.certificates,
                                      disclosures=self.disclosures,
                                      require_leaf=self.require_leaf)
        classes = tuple(self.classifier.classify(c) for c in chain.certificates)
        anchored = self.classifier.chain_anchored_to_public_root(
            structure.path_certificates() or chain.certificates)
        analysis = HybridChainAnalysis(
            chain=chain, structure=structure, classes=classes,
            category=self._top_category(structure),
            anchored_to_public_root=anchored,
        )
        if analysis.category is HybridCategory.COMPLETE_PATH_ONLY:
            analysis.complete_kind = self._complete_kind(analysis)
            if analysis.complete_kind is CompletePathKind.NON_PUBLIC_CHAINED_TO_PUBLIC:
                leaf = chain.certificates[0]
                analysis.entity = classify_entity(leaf.issuer)
        elif analysis.category is HybridCategory.NO_COMPLETE_PATH:
            analysis.no_path_category = self._no_path_category(analysis)
        return analysis

    @staticmethod
    def _top_category(structure: ChainStructure) -> HybridCategory:
        if structure.is_complete_matched_path:
            return HybridCategory.COMPLETE_PATH_ONLY
        if structure.contains_complete_matched_path:
            return HybridCategory.CONTAINS_COMPLETE_PATH
        return HybridCategory.NO_COMPLETE_PATH

    def _complete_kind(self, analysis: HybridChainAnalysis) -> CompletePathKind:
        classes = analysis.classes
        if classes[0] is IssuerClass.NON_PUBLIC_DB and analysis.anchored_to_public_root:
            return CompletePathKind.NON_PUBLIC_CHAINED_TO_PUBLIC
        if (classes[0] is IssuerClass.PUBLIC_DB
                and classes[-1] is IssuerClass.NON_PUBLIC_DB):
            return CompletePathKind.PUBLIC_CHAINED_TO_PRIVATE
        return CompletePathKind.OTHER

    def _no_path_category(self, analysis: HybridChainAnalysis) -> NoPathCategory:
        certs = analysis.structure.certificates
        pairs = analysis.structure.pair_matches
        classes = analysis.classes
        leaf = certs[0]
        all_mismatched = all(not p.matched for p in pairs) if pairs else False
        if leaf.is_self_signed and classes[0] is IssuerClass.NON_PUBLIC_DB:
            rest_matched = all(p.matched for p in pairs[1:]) if len(pairs) > 1 else False
            if rest_matched and len(certs) >= 3:
                return NoPathCategory.SELF_SIGNED_LEAF_THEN_VALID_SUBCHAIN
            return NoPathCategory.SELF_SIGNED_LEAF_THEN_MISMATCHES
        last = certs[-1]
        last_is_nonpub_root = (last.is_self_signed
                               and classes[-1] is IssuerClass.NON_PUBLIC_DB)
        if last_is_nonpub_root and len(pairs) >= 1:
            head_matched = all(p.matched for p in pairs[:-1]) if len(pairs) > 1 else True
            head_public = all(c is IssuerClass.PUBLIC_DB for c in classes[:-1])
            if head_matched and head_public and not pairs[-1].matched:
                return NoPathCategory.ROOT_APPENDED_TO_PUBLIC_SUBCHAIN
            if not head_matched:
                return NoPathCategory.ROOT_AND_MISMATCHED
        if all_mismatched:
            return NoPathCategory.ALL_MISMATCHED
        return NoPathCategory.PARTIAL_MISMATCHED
