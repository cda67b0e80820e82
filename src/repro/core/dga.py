"""Domain Generation Algorithm (DGA) certificate cluster detection (§4.3).

The paper finds a cluster of single-certificate chains whose issuer and
subject both carry randomly generated domains following one template
(``www[dot]randomstring[dot]com``) with validity periods scattered between
4 and 365 days.  The detector below recognises that shape: template
conformance, lexical randomness of the middle label, issuer ≠ subject, and
clusters the matches by template.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from ..x509.certificate import Certificate
from .chain import ChainUsage, ObservedChain

__all__ = ["looks_random", "domain_template", "DGACluster", "DGADetector"]

_DOMAIN_RE = re.compile(r"^(?P<prefix>www)\.(?P<label>[a-z0-9]{6,24})\.(?P<tld>com|net|org|info)$")

#: English-ish bigrams that rarely all go missing in natural words.
_VOWELS = set("aeiou")


def _shannon_entropy(text: str) -> float:
    if not text:
        return 0.0
    counts = Counter(text)
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def looks_random(label: str) -> bool:
    """Lexical randomness heuristic for one DNS label.

    Random strings drawn uniformly from [a-z0-9] exhibit high character
    entropy, an off-natural vowel ratio, and long consonant runs; dictionary
    words and brand names do not.  The heuristic requires at least two of
    the three signals, which keeps both false-positive and false-negative
    rates low on the synthetic corpus (see tests).
    """
    if len(label) < 6:
        return False
    letters = [c for c in label if c.isalpha()]
    if not letters:
        return True
    vowel_ratio = sum(1 for c in letters if c in _VOWELS) / len(letters)
    entropy = _shannon_entropy(label)
    longest_consonant_run = _longest_run(label)
    signals = 0
    if entropy >= 3.2:
        signals += 1
    if vowel_ratio < 0.22 or vowel_ratio > 0.62:
        signals += 1
    if longest_consonant_run >= 4:
        signals += 1
    if any(c.isdigit() for c in label):
        signals += 1
    return signals >= 2


def _longest_run(label: str) -> int:
    longest = run = 0
    for char in label:
        if char.isalpha() and char not in _VOWELS:
            run += 1
            longest = max(longest, run)
        else:
            run = 0
    return longest


def domain_template(domain: str) -> Optional[str]:
    """Return the structural template of a candidate DGA domain, or None.

    ``www.qkzjtvwy.com`` → ``www.<rand>.com``; non-conforming or
    non-random domains return None.
    """
    match = _DOMAIN_RE.match(domain.lower().strip("."))
    if match is None:
        return None
    if not looks_random(match.group("label")):
        return None
    return f"{match.group('prefix')}.<rand>.{match.group('tld')}"


@dataclass
class DGACluster:
    """A group of single-certificate chains sharing one domain template."""

    template: str
    chains: List[ObservedChain] = field(default_factory=list)

    @property
    def connections(self) -> int:
        return sum(chain.usage.connections for chain in self.chains)

    @property
    def client_ips(self) -> int:
        return ChainUsage.distinct_clients(
            chain.usage for chain in self.chains)

    def validity_range_days(self) -> tuple[int, int]:
        """(min, max) certificate lifetime in days across the cluster."""
        days = [
            round(chain.certificates[0].validity.lifetime.total_seconds() / 86400)
            for chain in self.chains
        ]
        return (min(days), max(days)) if days else (0, 0)


class DGADetector:
    """Finds DGA clusters among single-certificate, distinct-issuer chains."""

    def __init__(self, *, min_cluster_size: int = 3):
        self.min_cluster_size = min_cluster_size

    def candidate(self, chain: ObservedChain) -> Optional[str]:
        """The template a chain matches, or None when it is not a candidate."""
        if not chain.is_single:
            return None
        certificate = chain.certificates[0]
        if certificate.is_self_signed:
            return None
        issuer_cn = certificate.issuer.common_name or ""
        subject_cn = certificate.subject.common_name or ""
        issuer_template = domain_template(issuer_cn)
        subject_template = domain_template(subject_cn)
        if issuer_template is None or subject_template is None:
            return None
        if issuer_template != subject_template:
            return None
        if issuer_cn == subject_cn:
            return None
        return subject_template

    def detect(self, chains: Iterable[ObservedChain]) -> list[DGACluster]:
        clusters: dict[str, DGACluster] = {}
        for chain in chains:
            template = self.candidate(chain)
            if template is None:
                continue
            clusters.setdefault(template, DGACluster(template)).chains.append(chain)
        return [cluster for cluster in clusters.values()
                if len(cluster.chains) >= self.min_cluster_size]
