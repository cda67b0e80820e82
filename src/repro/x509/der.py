"""From-scratch DER encoding of structured certificates (X.690 / RFC 5280).

Renders a :class:`~repro.x509.certificate.Certificate` record as real
X.509 v3 DER: a full TBSCertificate with name, validity, a synthetic
SubjectPublicKeyInfo of the right algorithm and size, and the record's
extensions — wrapped with an AlgorithmIdentifier and a placeholder
signature BIT STRING.  The output parses with any X.509 library (the tests
load it with ``cryptography``); the signature is deterministic filler, so
it does not verify — the simulator's structured pipeline never needed it
to, and real signing lives in :mod:`repro.x509.pem`.

Uses: byte-exact wire sizes for the §6.1 overhead analysis, and PEM
export of any simulated chain for external tooling.
"""

from __future__ import annotations

import base64
import hashlib
from datetime import datetime, timezone
from typing import List, Sequence

from ..obs.cache import BoundedLRU
from ..obs.instruments import (
    DER_CACHE_HIT,
    DER_CACHE_MISS,
    DER_EXT_CACHE_HIT,
    DER_EXT_CACHE_MISS,
    DER_NAME_CACHE_HIT,
    DER_NAME_CACHE_MISS,
)
from .certificate import Certificate, KeyAlgorithm
from .dn import DistinguishedName
from .extensions import ExtensionSet

__all__ = [
    "encode_certificate_der",
    "certificate_to_pem",
    "chain_to_pem",
    # low-level encoders, exported for reuse and tests
    "der_sequence",
    "der_integer",
    "der_oid",
    "der_bit_string",
    "der_octet_string",
    "der_utf8",
    "der_printable",
    "der_boolean",
    "der_time",
]

# -- X.690 primitives ----------------------------------------------------------


def _length(payload_len: int) -> bytes:
    if payload_len < 0x80:
        return bytes([payload_len])
    encoded = payload_len.to_bytes((payload_len.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(encoded)]) + encoded


def _tlv(tag: int, payload: bytes) -> bytes:
    return bytes([tag]) + _length(len(payload)) + payload


def der_sequence(*members: bytes) -> bytes:
    return _tlv(0x30, b"".join(members))


def der_set(*members: bytes) -> bytes:
    # DER requires SET OF members in sorted order; our RDN sets are
    # single-member, but sort anyway for correctness.
    return _tlv(0x31, b"".join(sorted(members)))


def der_integer(value: int) -> bytes:
    if value == 0:
        return _tlv(0x02, b"\x00")
    negative = value < 0
    magnitude = abs(value)
    raw = magnitude.to_bytes((magnitude.bit_length() + 8) // 8, "big")
    if negative:  # pragma: no cover - certificates never need negatives
        raise ValueError("negative INTEGER not supported")
    raw = raw.lstrip(b"\x00") or b"\x00"
    if raw[0] & 0x80:
        raw = b"\x00" + raw
    return _tlv(0x02, raw)


def der_oid(dotted: str) -> bytes:
    arcs = [int(part) for part in dotted.split(".")]
    if len(arcs) < 2:
        raise ValueError(f"OID needs at least two arcs: {dotted!r}")
    body = bytearray([arcs[0] * 40 + arcs[1]])
    for arc in arcs[2:]:
        chunk = bytearray([arc & 0x7F])
        arc >>= 7
        while arc:
            chunk.insert(0, 0x80 | (arc & 0x7F))
            arc >>= 7
        body.extend(chunk)
    return _tlv(0x06, bytes(body))


def der_bit_string(data: bytes, unused_bits: int = 0) -> bytes:
    return _tlv(0x03, bytes([unused_bits]) + data)


def der_octet_string(data: bytes) -> bytes:
    return _tlv(0x04, data)


def der_utf8(text: str) -> bytes:
    return _tlv(0x0C, text.encode("utf-8"))


def der_printable(text: str) -> bytes:
    return _tlv(0x13, text.encode("ascii"))


def der_ia5(text: str) -> bytes:
    return _tlv(0x16, text.encode("ascii"))


def der_boolean(value: bool) -> bytes:
    return _tlv(0x01, b"\xff" if value else b"\x00")


def der_null() -> bytes:
    return _tlv(0x05, b"")


def der_time(moment: datetime) -> bytes:
    """UTCTime for 1950–2049, GeneralizedTime outside (RFC 5280 §4.1.2.5)."""
    moment = moment.astimezone(timezone.utc)
    if 1950 <= moment.year < 2050:
        return _tlv(0x17, moment.strftime("%y%m%d%H%M%SZ").encode("ascii"))
    return _tlv(0x18, moment.strftime("%Y%m%d%H%M%SZ").encode("ascii"))


def _context(tag: int, payload: bytes, *, constructed: bool = True) -> bytes:
    return _tlv((0xA0 if constructed else 0x80) | tag, payload)


# -- Name encoding ----------------------------------------------------------------

_ATTR_OIDS = {
    "CN": "2.5.4.3",
    "C": "2.5.4.6",
    "L": "2.5.4.7",
    "ST": "2.5.4.8",
    "STREET": "2.5.4.9",
    "O": "2.5.4.10",
    "OU": "2.5.4.11",
    "serialNumber": "2.5.4.5",
    "DC": "0.9.2342.19200300.100.1.25",
    "UID": "0.9.2342.19200300.100.1.1",
    "emailAddress": "1.2.840.113549.1.9.1",
}


# Issuer names repeat across every certificate a CA signs, and the whole-
# certificate memo above this layer only dedupes *identical records* — two
# certificates sharing an issuer still each encode that name.  Memoizing
# the component keeps the win when the outer memo misses.
_NAME_MEMO: BoundedLRU = BoundedLRU(
    65536, hits=DER_NAME_CACHE_HIT, misses=DER_NAME_CACHE_MISS)


def _encode_name(dn: DistinguishedName) -> bytes:
    encoded = _NAME_MEMO.get(dn)
    if encoded is None:
        encoded = _encode_name_uncached(dn)
        _NAME_MEMO.put(dn, encoded)
    return encoded


def _encode_name_uncached(dn: DistinguishedName) -> bytes:
    rdns = []
    for atv in dn:
        oid = _ATTR_OIDS.get(atv.attr_type, atv.attr_type)
        if not oid[0].isdigit():
            # Unknown symbolic type: park it under a private-enterprise arc
            # so the certificate still encodes.
            oid = "2.5.4.3"
        if atv.attr_type == "C" and len(atv.value) == 2 \
                and atv.value.isascii():
            value = der_printable(atv.value)
        elif atv.attr_type == "emailAddress" and atv.value.isascii():
            value = der_ia5(atv.value)
        else:
            value = der_utf8(atv.value)
        rdns.append(der_set(der_sequence(der_oid(oid), value)))
    return der_sequence(*rdns)


# -- SubjectPublicKeyInfo ------------------------------------------------------------

_RSA_OID = "1.2.840.113549.1.1.1"
_EC_OID = "1.2.840.10045.2.1"
_P256_OID = "1.2.840.10045.3.1.7"
_ED25519_OID = "1.3.101.112"
_SHA256_RSA_OID = "1.2.840.113549.1.1.11"
_ECDSA_SHA256_OID = "1.2.840.10045.4.3.2"


def _synthetic_bytes(seed: str, count: int) -> bytes:
    """Deterministic filler derived from the certificate identity."""
    out = bytearray()
    counter = 0
    while len(out) < count:
        out.extend(hashlib.sha256(f"{seed}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:count])


def _encode_spki(certificate: Certificate) -> bytes:
    seed = f"spki:{certificate.serial}:{certificate.subject.rfc4514()}"
    if certificate.key_algorithm is KeyAlgorithm.ECDSA:
        algorithm = der_sequence(der_oid(_EC_OID), der_oid(_P256_OID))
        # A point must satisfy the curve equation to load, so every
        # synthetic EC key carries the P-256 generator point (parse-only
        # substrate; real keys live in repro.x509.pem).
        point = b"\x04" + bytes.fromhex(
            "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296"
            "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5")
        return der_sequence(algorithm, der_bit_string(point))
    if certificate.key_algorithm is KeyAlgorithm.ED25519:
        algorithm = der_sequence(der_oid(_ED25519_OID))
        return der_sequence(algorithm, der_bit_string(
            _synthetic_bytes(seed, 32)))
    # RSA (and the fallback for unknown algorithms).
    bits = certificate.key_bits or 2048
    modulus = int.from_bytes(_synthetic_bytes(seed, bits // 8), "big")
    modulus |= 1 << (bits - 1)   # full bit length
    modulus |= 1                 # odd
    rsa_key = der_sequence(der_integer(modulus), der_integer(65537))
    algorithm = der_sequence(der_oid(_RSA_OID), der_null())
    return der_sequence(algorithm, der_bit_string(rsa_key))


def _signature_algorithm(certificate: Certificate) -> bytes:
    if certificate.key_algorithm is KeyAlgorithm.ECDSA:
        return der_sequence(der_oid(_ECDSA_SHA256_OID))
    return der_sequence(der_oid(_SHA256_RSA_OID), der_null())


# -- extensions -------------------------------------------------------------------

_BC_OID = "2.5.29.19"
_KU_OID = "2.5.29.15"
_EKU_OID = "2.5.29.37"
_SAN_OID = "2.5.29.17"
_SKI_OID = "2.5.29.14"
_AKI_OID = "2.5.29.35"

_EKU_OIDS = {
    "serverAuth": "1.3.6.1.5.5.7.3.1",
    "clientAuth": "1.3.6.1.5.5.7.3.2",
    "codeSigning": "1.3.6.1.5.5.7.3.3",
    "emailProtection": "1.3.6.1.5.5.7.3.4",
    "OCSPSigning": "1.3.6.1.5.5.7.3.9",
    "anyExtendedKeyUsage": "2.5.29.37.0",
}


def _extension(oid: str, critical: bool, inner: bytes) -> bytes:
    members = [der_oid(oid)]
    if critical:
        members.append(der_boolean(True))
    members.append(der_octet_string(inner))
    return der_sequence(*members)


# Extension profiles are templates: every leaf minted from the same CA
# policy shares one ExtensionSet (frozen, hashable) even though the
# certificates differ in serial/name/validity.  Encoded blocks are reused
# via the memo; the tuple is never mutated by callers.
_EXT_MEMO: BoundedLRU = BoundedLRU(
    65536, hits=DER_EXT_CACHE_HIT, misses=DER_EXT_CACHE_MISS)


def _encode_extensions(ext: ExtensionSet) -> Sequence[bytes]:
    encoded = _EXT_MEMO.get(ext)
    if encoded is None:
        encoded = tuple(_encode_extensions_uncached(ext))
        _EXT_MEMO.put(ext, encoded)
    return encoded


def _encode_extensions_uncached(ext: ExtensionSet) -> List[bytes]:
    encoded: List[bytes] = []
    if ext.basic_constraints is not None:
        bc = ext.basic_constraints
        members = []
        if bc.ca:
            members.append(der_boolean(True))
            if bc.path_len is not None:
                members.append(der_integer(bc.path_len))
        encoded.append(_extension(_BC_OID, bc.critical,
                                  der_sequence(*members)))
    if ext.key_usage is not None:
        ku = ext.key_usage
        bits = 0
        if ku.digital_signature:
            bits |= 0x80
        if ku.key_encipherment:
            bits |= 0x20
        if ku.key_cert_sign:
            bits |= 0x04
        if ku.crl_sign:
            bits |= 0x02
        if bits:
            raw = bytes([bits])
            unused = (raw[0] & -raw[0]).bit_length() - 1
        else:
            raw, unused = b"", 0
        encoded.append(_extension(_KU_OID, ku.critical,
                                  der_bit_string(raw, unused)))
    if ext.extended_key_usage is not None:
        purposes = [der_oid(_EKU_OIDS[p.value])
                    for p in ext.extended_key_usage.purposes]
        encoded.append(_extension(_EKU_OID, ext.extended_key_usage.critical,
                                  der_sequence(*purposes)))
    if ext.subject_alt_name is not None:
        names = [_context(2, name.encode("ascii"), constructed=False)
                 for name in ext.subject_alt_name.dns_names]
        names += [_context(7, bytes(int(p) for p in ip.split(".")),
                           constructed=False)
                  for ip in ext.subject_alt_name.ip_addresses
                  if ip.count(".") == 3]
        encoded.append(_extension(_SAN_OID, ext.subject_alt_name.critical,
                                  der_sequence(*names)))
    if ext.subject_key_id is not None:
        encoded.append(_extension(
            _SKI_OID, ext.subject_key_id.critical,
            der_octet_string(bytes.fromhex(ext.subject_key_id.key_id))))
    if ext.authority_key_id is not None:
        encoded.append(_extension(
            _AKI_OID, ext.authority_key_id.critical,
            der_sequence(_context(
                0, bytes.fromhex(ext.authority_key_id.key_id),
                constructed=False))))
    return encoded


# -- certificate assembly ---------------------------------------------------------------


# Keyed by the Certificate record itself (frozen dataclass, hashable),
# NOT the fingerprint: the fingerprint canonical excludes extensions, so
# an original and a log-reconstructed certificate can share a fingerprint
# while differing in ExtensionSet — and therefore in DER.
_DER_MEMO: BoundedLRU = BoundedLRU(
    65536, hits=DER_CACHE_HIT, misses=DER_CACHE_MISS)


def encode_certificate_der(certificate: Certificate) -> bytes:
    """Render the structured record as parseable X.509 v3 DER, memoized.

    The signature BIT STRING is deterministic filler (it will not verify);
    every name, date, serial, key parameter, and extension is real.
    Certificates are immutable, so each distinct record is encoded once
    per process — the §6.1 overhead pass and PEM export walk the same
    handful of certificates once per chain appearance.
    """
    der = _DER_MEMO.get(certificate)
    if der is None:
        der = _encode_certificate_der_uncached(certificate)
        _DER_MEMO.put(certificate, der)
    return der


def _encode_certificate_der_uncached(certificate: Certificate) -> bytes:
    tbs_members: List[bytes] = []
    tbs_members.append(_context(0, der_integer(certificate.version - 1)))
    tbs_members.append(der_integer(int(certificate.serial, 16)
                                   if certificate.serial else 0))
    tbs_members.append(_signature_algorithm(certificate))
    tbs_members.append(_encode_name(certificate.issuer))
    tbs_members.append(der_sequence(
        der_time(certificate.validity.not_before),
        der_time(certificate.validity.not_after)))
    tbs_members.append(_encode_name(certificate.subject))
    tbs_members.append(_encode_spki(certificate))
    extensions = _encode_extensions(certificate.extensions)
    if extensions:
        tbs_members.append(_context(3, der_sequence(*extensions)))
    tbs = der_sequence(*tbs_members)

    signature_len = (certificate.key_bits // 8
                     if certificate.key_algorithm is KeyAlgorithm.RSA
                     else 72)
    signature = _synthetic_bytes(
        f"sig:{certificate.serial}:{certificate.issuer.rfc4514()}",
        max(signature_len, 64))
    return der_sequence(tbs, _signature_algorithm(certificate),
                        der_bit_string(signature))


def certificate_to_pem(certificate: Certificate) -> str:
    der = encode_certificate_der(certificate)
    body = base64.encodebytes(der).decode("ascii")
    return f"-----BEGIN CERTIFICATE-----\n{body}-----END CERTIFICATE-----\n"


def chain_to_pem(chain: Sequence[Certificate]) -> str:
    """PEM bundle for a whole simulated chain, wire order preserved."""
    return "".join(certificate_to_pem(cert) for cert in chain)
