"""Zeek ``ssl.log`` and ``x509.log`` record types.

Field names and types follow Zeek's ``SSL::Info`` and ``X509::Info``
records, restricted to the authorized fields the paper's pipeline used
(§3.1): connection 4-tuple, version, SNI, established flag, certificate
chain fingerprints, and per-certificate structured attributes.  Raw
certificates are deliberately not representable here, matching the IRB
constraint that shaped the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from typing import Optional

from ..tls.connection import ConnectionRecord
from ..x509.certificate import Certificate

__all__ = ["SSLRecord", "X509Record", "ssl_record_from_connection",
           "x509_record_from_certificate"]


@dataclass(frozen=True, slots=True)
class SSLRecord:
    """One ``ssl.log`` row."""

    ts: float
    uid: str
    id_orig_h: str
    id_orig_p: int
    id_resp_h: str
    id_resp_p: int
    version: str
    server_name: Optional[str]
    established: bool
    cert_chain_fps: tuple[str, ...]
    resumed: bool = False
    validation_status: str = ""

    FIELDS = (
        "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p",
        "version", "server_name", "resumed", "established",
        "cert_chain_fps", "validation_status",
    )
    TYPES = (
        "time", "string", "addr", "port", "addr", "port",
        "string", "string", "bool", "bool",
        "vector[string]", "string",
    )

    def to_row(self) -> list[object]:
        return [
            self.ts, self.uid, self.id_orig_h, self.id_orig_p,
            self.id_resp_h, self.id_resp_p, self.version, self.server_name,
            self.resumed, self.established, self.cert_chain_fps,
            self.validation_status,
        ]

    @classmethod
    def from_row(cls, row: dict) -> "SSLRecord":
        return cls(
            ts=row["ts"],
            uid=row["uid"],
            id_orig_h=row["id.orig_h"],
            id_orig_p=row["id.orig_p"],
            id_resp_h=row["id.resp_h"],
            id_resp_p=row["id.resp_p"],
            version=row["version"] or "",
            server_name=row["server_name"],
            resumed=bool(row["resumed"]),
            established=bool(row["established"]),
            cert_chain_fps=tuple(row["cert_chain_fps"] or ()),
            validation_status=row["validation_status"] or "",
        )


@dataclass(frozen=True, slots=True)
class X509Record:
    """One ``x509.log`` row (keyed by certificate fingerprint)."""

    ts: float
    fingerprint: str
    certificate_version: int
    certificate_serial: str
    certificate_subject: str
    certificate_issuer: str
    certificate_not_valid_before: float
    certificate_not_valid_after: float
    certificate_key_alg: str
    certificate_sig_alg: str
    certificate_key_length: int
    san_dns: tuple[str, ...] = ()
    basic_constraints_ca: Optional[bool] = None
    basic_constraints_path_len: Optional[int] = None

    FIELDS = (
        "ts", "fingerprint", "certificate.version", "certificate.serial",
        "certificate.subject", "certificate.issuer",
        "certificate.not_valid_before", "certificate.not_valid_after",
        "certificate.key_alg", "certificate.sig_alg",
        "certificate.key_length", "san.dns",
        "basic_constraints.ca", "basic_constraints.path_len",
    )
    TYPES = (
        "time", "string", "count", "string",
        "string", "string",
        "time", "time",
        "string", "string",
        "count", "vector[string]",
        "bool", "count",
    )

    def to_row(self) -> list[object]:
        return [
            self.ts, self.fingerprint, self.certificate_version,
            self.certificate_serial, self.certificate_subject,
            self.certificate_issuer, self.certificate_not_valid_before,
            self.certificate_not_valid_after, self.certificate_key_alg,
            self.certificate_sig_alg, self.certificate_key_length,
            list(self.san_dns), self.basic_constraints_ca,
            self.basic_constraints_path_len,
        ]

    @classmethod
    def from_row(cls, row: dict) -> "X509Record":
        return cls(
            ts=row["ts"],
            fingerprint=row["fingerprint"],
            certificate_version=row["certificate.version"],
            certificate_serial=row["certificate.serial"],
            certificate_subject=row["certificate.subject"],
            certificate_issuer=row["certificate.issuer"],
            certificate_not_valid_before=row["certificate.not_valid_before"],
            certificate_not_valid_after=row["certificate.not_valid_after"],
            certificate_key_alg=row["certificate.key_alg"],
            certificate_sig_alg=row["certificate.sig_alg"],
            certificate_key_length=row["certificate.key_length"],
            san_dns=tuple(row["san.dns"] or ()),
            basic_constraints_ca=row["basic_constraints.ca"],
            basic_constraints_path_len=row["basic_constraints.path_len"],
        )


def ssl_record_from_connection(connection: ConnectionRecord) -> SSLRecord:
    return SSLRecord(
        ts=connection.timestamp.timestamp(),
        uid=connection.uid,
        id_orig_h=connection.client.ip,
        id_orig_p=connection.client.port,
        id_resp_h=connection.server.ip,
        id_resp_p=connection.server.port,
        version=connection.version.value,
        server_name=connection.sni,
        established=connection.established,
        cert_chain_fps=connection.chain_fingerprints,
        validation_status=connection.validation_detail,
    )


def x509_record_from_certificate(certificate: Certificate,
                                 observed_at: datetime) -> X509Record:
    ext = certificate.extensions
    bc = ext.basic_constraints
    san = ext.subject_alt_name
    return X509Record(
        ts=observed_at.timestamp(),
        fingerprint=certificate.fingerprint,
        certificate_version=certificate.version,
        certificate_serial=certificate.serial,
        certificate_subject=certificate.subject.rfc4514(),
        certificate_issuer=certificate.issuer.rfc4514(),
        certificate_not_valid_before=certificate.validity.not_before.timestamp(),
        certificate_not_valid_after=certificate.validity.not_after.timestamp(),
        certificate_key_alg=certificate.key_algorithm.value,
        certificate_sig_alg=certificate.signature_algorithm,
        certificate_key_length=certificate.key_bits,
        san_dns=tuple(san.dns_names) if san else (),
        basic_constraints_ca=bc.ca if bc else None,
        basic_constraints_path_len=bc.path_len if bc else None,
    )
