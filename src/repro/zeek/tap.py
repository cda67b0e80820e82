"""Monitoring tap: turns simulated handshake outcomes into Zeek logs, and
reconstructs analyzer input from those logs.

``MonitoringTap`` is the border-gateway sensor: it observes
:class:`~repro.tls.connection.ConnectionRecord` streams and maintains the
two log streams the paper worked from.  ``reconstruct_certificate`` /
``join_logs`` is the inverse direction: given SSL and X509 rows (ours or
real Zeek's), rebuild the per-connection chain view the analyzer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from ..obs import instruments
from ..obs.cache import BoundedLRU
from ..obs.logging import get_logger, kv
from ..obs.tracing import trace_span
from ..tls.connection import ConnectionRecord
from ..x509.certificate import Certificate, KeyAlgorithm, ValidityPeriod
from ..x509.dn import DistinguishedName
from ..x509.extensions import BasicConstraints, ExtensionSet, SubjectAltName
from .records import (
    SSLRecord,
    X509Record,
    ssl_record_from_connection,
    x509_record_from_certificate,
)

__all__ = ["MonitoringTap", "reconstruct_certificate", "certificate_map",
           "join_logs", "iter_joined", "JoinedConnection", "JoinStats"]

log = get_logger(__name__)


class MonitoringTap:
    """Accumulates SSL rows and de-duplicated X509 rows like a Zeek worker."""

    def __init__(self) -> None:
        self.ssl_records: List[SSLRecord] = []
        self._x509_by_fingerprint: Dict[str, X509Record] = {}

    def observe(self, connection: ConnectionRecord) -> SSLRecord:
        record = ssl_record_from_connection(connection)
        self.ssl_records.append(record)
        for certificate in connection.chain:
            if certificate.fingerprint not in self._x509_by_fingerprint:
                self._x509_by_fingerprint[certificate.fingerprint] = (
                    x509_record_from_certificate(certificate, connection.timestamp)
                )
        return record

    def observe_all(self, connections: Iterable[ConnectionRecord]) -> int:
        count = 0
        for connection in connections:
            self.observe(connection)
            count += 1
        return count

    @property
    def x509_records(self) -> list[X509Record]:
        return list(self._x509_by_fingerprint.values())

    def ssl_rows(self) -> list[list[object]]:
        return [record.to_row() for record in self.ssl_records]

    def x509_rows(self) -> list[list[object]]:
        return [record.to_row() for record in self.x509_records]


#: Reconstruction memo.  The parallel engine rebuilds each distinct X509
#: section once per ingest, so it asks once per distinct certificate;
#: hits come from a later pass over the same logs in one process (a
#: resumed or repeated run, ``certificate_map`` over rows already seen).
#: :class:`X509Record` is a frozen hashable dataclass, so the full record
#: is its own cache key — two rows that differ in any field can never
#: alias one entry.
_RECONSTRUCT_CACHE: "BoundedLRU[X509Record, Certificate]" = BoundedLRU(
    131072,
    hits=instruments.CERT_CACHE_HIT,
    misses=instruments.CERT_CACHE_MISS)


def reconstruct_certificate(record: X509Record) -> Certificate:
    """Rebuild a :class:`Certificate` from an X509 log row (memoized).

    The result carries no generator ground truth (no signing key id, no true
    role) — by construction the analyzer operates with exactly the paper's
    information set.  Certificates are immutable, so repeated rows share
    one reconstructed object.
    """
    cached = _RECONSTRUCT_CACHE.get(record)
    if cached is not None:
        return cached
    certificate = _reconstruct_uncached(record)
    _RECONSTRUCT_CACHE.put(record, certificate)
    return certificate


def _reconstruct_uncached(record: X509Record) -> Certificate:
    bc: Optional[BasicConstraints] = None
    if record.basic_constraints_ca is not None:
        bc = BasicConstraints(ca=record.basic_constraints_ca,
                              path_len=record.basic_constraints_path_len)
    san: Optional[SubjectAltName] = None
    if record.san_dns:
        san = SubjectAltName(tuple(record.san_dns))
    return Certificate(
        subject=DistinguishedName.parse(record.certificate_subject),
        issuer=DistinguishedName.parse(record.certificate_issuer),
        serial=record.certificate_serial,
        validity=ValidityPeriod(
            datetime.fromtimestamp(record.certificate_not_valid_before, timezone.utc),
            datetime.fromtimestamp(record.certificate_not_valid_after, timezone.utc),
        ),
        key_algorithm=_key_algorithm(record.certificate_key_alg),
        key_bits=record.certificate_key_length,
        signature_algorithm=record.certificate_sig_alg,
        extensions=ExtensionSet(basic_constraints=bc, subject_alt_name=san),
        version=record.certificate_version,
        fingerprint_override=record.fingerprint,
    )


def _key_algorithm(text: str) -> KeyAlgorithm:
    try:
        return KeyAlgorithm(text)
    except ValueError:
        return KeyAlgorithm.UNKNOWN


@dataclass(frozen=True, slots=True)
class JoinedConnection:
    """One SSL row joined with its certificate chain — analyzer input."""

    ssl: SSLRecord
    chain: tuple[Certificate, ...]

    @property
    def chain_key(self) -> tuple[str, ...]:
        return tuple(cert.fingerprint for cert in self.chain)


@dataclass(slots=True)
class JoinStats:
    """Mutable tallies filled in by :func:`iter_joined` as it streams."""

    joined: int = 0
    missing_certs: int = 0


def certificate_map(x509_records: Iterable[X509Record]) -> Dict[str, Certificate]:
    """Reconstruct every X509 row into a fingerprint-keyed certificate map."""
    return {record.fingerprint: reconstruct_certificate(record)
            for record in x509_records}


def iter_joined(ssl_records: Iterable[SSLRecord],
                certificates: Mapping[str, Certificate],
                *, strict: bool = False,
                stats: Optional[JoinStats] = None
                ) -> Iterator[JoinedConnection]:
    """Stream SSL rows joined against an already-built certificate map.

    The generator core of :func:`join_logs`: it holds only the
    certificate map in memory, so shard workers can pipe a streaming
    SSL reader straight into chain aggregation.  Metrics and logging are
    the *caller's* job (``join_logs`` for the serial path, the parallel
    driver after merging) — pass a :class:`JoinStats` to collect the
    tallies those callers report.
    """
    if stats is None:
        stats = JoinStats()
    get_certificate = certificates.get
    for ssl in ssl_records:
        chain: list[Certificate] = []
        for fingerprint in ssl.cert_chain_fps:
            certificate = get_certificate(fingerprint)
            if certificate is None:
                if strict:
                    raise KeyError(
                        f"SSL row {ssl.uid} references unknown "
                        f"certificate {fingerprint}")
                stats.missing_certs += 1
                continue
            chain.append(certificate)
        stats.joined += 1
        yield JoinedConnection(ssl, tuple(chain))


def join_logs(ssl_records: Sequence[SSLRecord],
              x509_records: Sequence[X509Record],
              *, strict: bool = False) -> list[JoinedConnection]:
    """Join SSL rows to their certificates via chain fingerprints.

    With ``strict=False`` (the default), connections referencing
    fingerprints missing from the X509 log are joined with the certificates
    that *are* present dropped out — matching how real pipelines tolerate
    log rotation races.  ``strict=True`` raises instead.
    """
    stats = JoinStats()
    with trace_span("join_logs", ssl_rows=len(ssl_records),
                    x509_rows=len(x509_records)):
        certificates = certificate_map(x509_records)
        joined = list(iter_joined(ssl_records, certificates,
                                  strict=strict, stats=stats))
    instruments.ZEEK_JOIN_CONNECTIONS.inc(stats.joined)
    instruments.ZEEK_JOIN_MISSING_CERTS.inc(stats.missing_certs)
    if stats.missing_certs:
        log.warning("join dropped unknown certificate references",
                    extra=kv(missing=stats.missing_certs, joined=stats.joined))
    return joined
