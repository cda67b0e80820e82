"""X.509 substrate: distinguished names, certificate records, extensions,
synthetic hierarchy generation, and crypto-backed PEM chains."""

from .certificate import Certificate, CertificateRole, KeyAlgorithm, ValidityPeriod
from .der import certificate_to_pem, chain_to_pem, encode_certificate_der
from .dn import AttributeTypeAndValue, DistinguishedName, DNParseError
from .extensions import (
    BasicConstraints,
    ExtensionSet,
    ExtendedKeyUsage,
    EKU,
    KeyUsage,
    SubjectAltName,
)
from .generation import CertificateFactory, IssuingAuthority, name, DEFAULT_EPOCH

__all__ = [
    "AttributeTypeAndValue",
    "BasicConstraints",
    "Certificate",
    "CertificateFactory",
    "CertificateRole",
    "certificate_to_pem",
    "chain_to_pem",
    "encode_certificate_der",
    "DEFAULT_EPOCH",
    "DistinguishedName",
    "DNParseError",
    "EKU",
    "ExtendedKeyUsage",
    "ExtensionSet",
    "IssuingAuthority",
    "KeyAlgorithm",
    "KeyUsage",
    "SubjectAltName",
    "ValidityPeriod",
    "name",
]
