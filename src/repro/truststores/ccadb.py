"""Common CA Database (CCADB) model.

CCADB is a repository of root *and intermediate* certificate records
contributed by public root-store operators.  An intermediate is included
when it chains to a trusted root of a participating program and is either
technically constrained or publicly audited (§3.2.1).  The paper uses CCADB
membership as one of the signals that an issuer is a *public-DB issuer*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

from ..x509.certificate import Certificate
from ..x509.dn import DistinguishedName
from .store import _dn_key

__all__ = ["CCADB", "CCADBRecord", "RootProgram"]

#: Participating root programs per the CCADB inclusion policy.
RootProgram = str
KNOWN_PROGRAMS: tuple[RootProgram, ...] = (
    "Mozilla", "Microsoft", "Apple", "Google", "Oracle",
)


@dataclass(frozen=True, slots=True)
class CCADBRecord:
    """One CCADB row: a root or intermediate certificate plus audit metadata."""

    certificate: Certificate
    record_type: str  # "root" or "intermediate"
    programs: tuple[RootProgram, ...] = ("Mozilla",)
    technically_constrained: bool = False
    audited: bool = True
    revoked: bool = False

    def eligible(self) -> bool:
        """CCADB inclusion criterion: chains to a participating program's
        root and is technically constrained or audited."""
        return bool(self.programs) and (self.technically_constrained or self.audited)

    @property
    def subject(self) -> DistinguishedName:
        return self.certificate.subject


class CCADB:
    """DN-indexed CCADB with the membership query the classifier needs."""

    def __init__(self, records: Iterable[CCADBRecord] = ()):
        self._by_dn: Dict[tuple, list[CCADBRecord]] = {}
        self._by_fingerprint: Dict[str, CCADBRecord] = {}
        for record in records:
            self.add(record)

    def add(self, record: CCADBRecord) -> None:
        if record.record_type not in ("root", "intermediate"):
            raise ValueError(f"unknown CCADB record type: {record.record_type!r}")
        self._by_dn.setdefault(_dn_key(record.subject), []).append(record)
        self._by_fingerprint[record.certificate.fingerprint] = record

    def add_intermediate(self, certificate: Certificate,
                         programs: Iterable[RootProgram] = ("Mozilla",),
                         technically_constrained: bool = False,
                         audited: bool = True) -> CCADBRecord:
        record = CCADBRecord(certificate, "intermediate",
                             tuple(programs), technically_constrained, audited)
        self.add(record)
        return record

    def add_root(self, certificate: Certificate,
                 programs: Iterable[RootProgram] = ("Mozilla",)) -> CCADBRecord:
        record = CCADBRecord(certificate, "root", tuple(programs))
        self.add(record)
        return record

    def contains_subject(self, dn: DistinguishedName) -> bool:
        """Is any eligible, unrevoked CCADB record's subject this DN?"""
        return any(
            record.eligible() and not record.revoked
            for record in self._by_dn.get(_dn_key(dn), ())
        )

    def contains_fingerprint(self, fingerprint: str) -> bool:
        record = self._by_fingerprint.get(fingerprint)
        return record is not None and record.eligible() and not record.revoked

    def __len__(self) -> int:
        return len(self._by_fingerprint)

    def __iter__(self) -> Iterator[CCADBRecord]:
        return iter(self._by_fingerprint.values())

    def __repr__(self) -> str:
        return f"CCADB({len(self)} records)"
