"""Issuer–subject matching and matched-path detection (§4.2, Appendix D.1).

Because the X509 logs carry no keys or signatures, the paper validates
chains *structurally*: walk the delivered chain from the leaf upward and
check that each certificate's issuer matches the next certificate's
subject.  On top of the pairwise matches we detect:

* **segments** — maximal contiguous runs of matching certificates,
* **complete matched paths** — segments of ≥2 certificates whose bottom
  certificate is a valid leaf (Figure 3),
* **mismatch ratio** — mismatched adjacent pairs over total pairs,
* **unnecessary certificates** — certificates outside the chosen complete
  matched path.

Cross-sign disclosures can bridge pairs that would otherwise read as
mismatches (Appendix D.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from ..obs import instruments
from ..obs.cache import BoundedLRU
from ..x509.certificate import Certificate
from .crosssign import CrossSignDisclosures

__all__ = [
    "PairMatch",
    "Segment",
    "ChainStructure",
    "analyze_structure",
    "match_pair",
    "is_leaf_like",
    "pack_structure",
    "unpack_structure",
]


class PairMatch(str, Enum):
    """Verdict for one adjacent (child, parent) pair."""

    DIRECT = "direct"
    CROSS_SIGN = "cross-sign"
    MISMATCH = "mismatch"

    @property
    def matched(self) -> bool:
        return self is not PairMatch.MISMATCH


@dataclass(frozen=True, slots=True)
class Segment:
    """A maximal contiguous run of certificates with matching adjacent pairs.

    ``start``/``end`` are inclusive indexes into the delivered chain;
    a singleton certificate forms a one-element segment.
    """

    start: int
    end: int
    has_leaf: bool

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    @property
    def is_singleton(self) -> bool:
        return self.start == self.end

    @property
    def is_complete_matched_path(self) -> bool:
        """Figure 3's definition: ≥2 matched certificates starting at a
        valid leaf."""
        return self.length >= 2 and self.has_leaf

    def indices(self) -> range:
        return range(self.start, self.end + 1)


def is_leaf_like(certificate: Certificate,
                 chain: Sequence[Certificate] = ()) -> bool:
    """Is this certificate plausibly an end-entity certificate?

    Public-DB issuers set ``basicConstraints`` as the standards require, so
    presence decides directly.  For the extension-less certificates common
    among non-public-DB issuers (§4.3), we fall back to structural hints:
    a certificate that issues nothing else in the chain and either carries a
    subjectAltName or sits first in the delivered order.
    """
    ext = certificate.extensions
    if ext.basic_constraints is not None:
        return not ext.basic_constraints.ca
    # Identity is the fingerprint, not the Python object: a chain
    # reconstructed from logs may hold several distinct objects for one
    # certificate, and they must all answer alike.
    fingerprint = certificate.fingerprint
    issues_someone = any(
        other.fingerprint != fingerprint and certificate.issued(other)
        for other in chain
    )
    if issues_someone:
        return False
    if ext.subject_alt_name is not None and ext.subject_alt_name.dns_names:
        return True
    return bool(chain) and chain[0].fingerprint == fingerprint


@dataclass
class ChainStructure:
    """Full structural analysis of one delivered chain."""

    certificates: tuple[Certificate, ...]
    pair_matches: tuple[PairMatch, ...]
    segments: tuple[Segment, ...]
    #: Segments qualifying as complete matched paths, in chain order.
    complete_paths: tuple[Segment, ...]
    #: The path used for unnecessary-certificate attribution (longest
    #: complete path; earliest wins ties), or None.
    best_path: Optional[Segment]
    mismatch_ratio: float

    @property
    def length(self) -> int:
        return len(self.certificates)

    @property
    def mismatch_positions(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.pair_matches)
                     if m is PairMatch.MISMATCH)

    @property
    def is_fully_matched(self) -> bool:
        """Every adjacent pair matches (no leaf requirement) — the §4.3
        criterion for non-public-DB-only and interception chains."""
        return all(m.matched for m in self.pair_matches)

    @property
    def is_complete_matched_path(self) -> bool:
        """The whole chain is exactly one complete matched path."""
        return (self.best_path is not None
                and self.best_path.start == 0
                and self.best_path.end == self.length - 1)

    @property
    def contains_complete_matched_path(self) -> bool:
        return bool(self.complete_paths)

    @property
    def unnecessary_indices(self) -> tuple[int, ...]:
        """Certificates that do not contribute to the chosen trust path."""
        if self.best_path is None:
            return ()
        chosen = set(self.best_path.indices())
        return tuple(i for i in range(self.length) if i not in chosen)

    @property
    def has_unnecessary(self) -> bool:
        return bool(self.unnecessary_indices)

    def unnecessary_certificates(self) -> tuple[Certificate, ...]:
        return tuple(self.certificates[i] for i in self.unnecessary_indices)

    def path_certificates(self) -> tuple[Certificate, ...]:
        if self.best_path is None:
            return ()
        return tuple(self.certificates[i] for i in self.best_path.indices())

    def segment_for_index(self, index: int) -> Segment:
        for segment in self.segments:
            if segment.start <= index <= segment.end:
                return segment
        raise IndexError(index)


def _match_pair(child: Certificate, parent: Certificate,
                disclosures: Optional[CrossSignDisclosures]) -> PairMatch:
    if parent.issued(child):
        return PairMatch.DIRECT
    if disclosures is not None and disclosures.bridges(child, parent):
        return PairMatch.CROSS_SIGN
    return PairMatch.MISMATCH


#: Pair-match memo.  The corpus repeats adjacent pairs massively — every
#: Let's Encrypt leaf shares the same (R3, ISRG Root) tail — so one verdict
#: per distinct (child, parent, disclosure-state) triple covers hundreds of
#: thousands of chains.  262,144 entries bound the memory on adversarial
#: input; hit rates export as ``repro_match_memo_lookups_total``.
_MATCH_MEMO: BoundedLRU[tuple, PairMatch] = BoundedLRU(
    262_144,
    hits=instruments.MATCH_MEMO_HIT,
    misses=instruments.MATCH_MEMO_MISS)


def match_pair(child: Certificate, parent: Certificate,
               disclosures: Optional[CrossSignDisclosures] = None) -> PairMatch:
    """Memoised adjacent-pair verdict.

    Keyed by certificate fingerprints plus the disclosure set's
    ``memo_token`` (a process-local instance id + mutation epoch), so a
    verdict cached under one disclosure state is never served for another:
    mutating or swapping the disclosures changes the token and the memo
    line goes cold.  Safe because :func:`_match_pair` is a pure function
    of the two certificates' names and the disclosure contents.
    """
    token = disclosures.memo_token if disclosures is not None else None
    key = (child.fingerprint, parent.fingerprint, token)
    cached = _MATCH_MEMO.get(key)
    if cached is None:
        cached = _match_pair(child, parent, disclosures)
        _MATCH_MEMO.put(key, cached)
    return cached


def _leaf_like_index(certs: Sequence[Certificate]):
    """O(1)-per-query equivalent of :func:`is_leaf_like` for one chain.

    Precomputes, per subject name, how many *distinct certificates* in the
    chain name it as their issuer — replacing the O(n) rescan that made
    pathological 3,800-certificate chains quadratic to analyze.
    Distinctness is by fingerprint: a reconstructed chain may carry
    several Python objects for one certificate, and counting them per
    object would inflate the issuer counts and flip leaf verdicts
    depending on how the chain was materialised.
    """
    issuer_counts: dict[tuple, int] = {}
    seen_fingerprints: set[str] = set()
    for certificate in certs:
        fingerprint = certificate.fingerprint
        if fingerprint in seen_fingerprints:
            continue
        seen_fingerprints.add(fingerprint)
        key = certificate.issuer.sorted_key()
        issuer_counts[key] = issuer_counts.get(key, 0) + 1

    first_fp = certs[0].fingerprint if certs else None

    def leaf_like(certificate: Certificate) -> bool:
        ext = certificate.extensions
        if ext.basic_constraints is not None:
            return not ext.basic_constraints.ca
        key = certificate.subject.sorted_key()
        named_by = issuer_counts.get(key, 0)
        if certificate.is_self_signed:
            named_by -= 1  # its own issuer field
        if named_by > 0:
            return False
        if ext.subject_alt_name is not None and ext.subject_alt_name.dns_names:
            return True
        return certificate.fingerprint == first_fp

    return leaf_like


def analyze_structure(chain: Sequence[Certificate], *,
                      disclosures: Optional[CrossSignDisclosures] = None,
                      require_leaf: bool = True) -> ChainStructure:
    """Analyze one delivered (wire-order, leaf-first) chain.

    ``require_leaf=False`` relaxes the complete-path definition to "all
    pairs in the segment match", which is how §4.3 treats non-public-DB
    chains whose missing ``basicConstraints`` defeat leaf identification.
    """
    certs = tuple(chain)
    pairs = tuple(
        match_pair(child, parent, disclosures)
        for child, parent in zip(certs, certs[1:])
    )
    leaf_like = _leaf_like_index(certs) if (certs and require_leaf) else None
    segments: list[Segment] = []
    if certs:
        start = 0
        for i, match in enumerate(pairs):
            if not match.matched:
                segments.append(_make_segment(certs, start, i, leaf_like))
                start = i + 1
        segments.append(_make_segment(certs, start, len(certs) - 1, leaf_like))
    return _assemble_structure(certs, pairs, tuple(segments))


def _assemble_structure(certs: tuple[Certificate, ...],
                        pairs: tuple[PairMatch, ...],
                        segments: tuple[Segment, ...]) -> ChainStructure:
    """Derive complete paths / best path / ratio from pairs + segments."""
    complete = tuple(s for s in segments if s.is_complete_matched_path)
    best = None
    for segment in complete:
        if best is None or segment.length > best.length:
            best = segment
    total_pairs = len(pairs)
    mismatches = sum(1 for m in pairs if m is PairMatch.MISMATCH)
    ratio = mismatches / total_pairs if total_pairs else 0.0
    return ChainStructure(
        certificates=certs,
        pair_matches=pairs,
        segments=tuple(segments),
        complete_paths=complete,
        best_path=best,
        mismatch_ratio=ratio,
    )


#: Wire order for the packed pair-match encoding — append only.
_PAIR_ORDER = (PairMatch.DIRECT, PairMatch.CROSS_SIGN, PairMatch.MISMATCH)
_PAIR_ORDINAL = {match: i for i, match in enumerate(_PAIR_ORDER)}


def pack_structure(structure: ChainStructure) -> tuple:
    """Encode a structure's *derived* state as pickle-cheap primitives.

    The artifact cache (:mod:`repro.resilience.checkpoint`) must not
    persist certificates — the caller re-supplies them on load — and
    unpickling tens of thousands of ``Segment`` dataclasses costs more
    than the analysis it saves.  The packed form is one bytes object plus
    int triples; :func:`unpack_structure` rebuilds everything derivable.
    """
    return (
        bytes(_PAIR_ORDINAL[m] for m in structure.pair_matches),
        tuple((s.start, s.end, s.has_leaf) for s in structure.segments),
    )


def unpack_structure(certificates: Sequence[Certificate],
                     packed: tuple) -> ChainStructure:
    """Rebuild a :func:`pack_structure` encoding against live certificates."""
    pair_bytes, segment_triples = packed
    pairs = tuple(_PAIR_ORDER[b] for b in pair_bytes)
    segments = tuple(Segment(start=start, end=end, has_leaf=has_leaf)
                     for start, end, has_leaf in segment_triples)
    return _assemble_structure(tuple(certificates), pairs, segments)


def _make_segment(certs: Sequence[Certificate], start: int, end: int,
                  leaf_like) -> Segment:
    if leaf_like is not None:
        has_leaf = leaf_like(certs[start])
    else:
        has_leaf = True
    return Segment(start=start, end=end, has_leaf=has_leaf)
