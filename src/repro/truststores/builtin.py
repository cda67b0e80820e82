"""Synthetic public Web PKI: the cast of public CAs and their store placement.

The paper's classification depends on concrete store contents (Mozilla NSS,
Apple, Microsoft, CCADB).  Real store snapshots are config data, not code,
so we instantiate a faithful synthetic cast: the CAs the paper names
(Let's Encrypt, DigiCert, Sectigo/AAA, COMODO, GoDaddy, Symantec, the U.S.
Federal PKI, Korean and Brazilian government anchors) with realistic
hierarchy shapes and deliberately *asymmetric* store membership — e.g. the
Federal Common Policy CA is only in the Microsoft store — which is what
makes the trust-store-scope ablation meaningful.

Cross-signing is modelled on the two canonical real-world cases the paper's
methodology must survive (Appendix D.1): IdenTrust "DST Root CA X3" → Let's
Encrypt "R3", and Sectigo "AAA Certificate Services" → "USERTrust RSA
Certification Authority".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..x509.certificate import Certificate
from ..x509.dn import DistinguishedName
from ..x509.generation import CertificateFactory, IssuingAuthority, name
from .ccadb import CCADB
from .registry import PublicDBRegistry
from .store import RootStore

__all__ = ["PublicCA", "PublicPKI", "build_public_pki", "STORE_NAMES"]

STORE_NAMES = ("Mozilla", "Apple", "Microsoft")


@dataclass
class PublicCA:
    """One public CA operator: a root plus its issuing intermediates."""

    name: str
    root: IssuingAuthority
    intermediates: Dict[str, IssuingAuthority] = field(default_factory=dict)
    #: Which root stores carry this CA's root.
    store_membership: tuple[str, ...] = STORE_NAMES

    def intermediate(self, label: str) -> IssuingAuthority:
        return self.intermediates[label]

    def all_certificates(self) -> list[Certificate]:
        return [self.root.certificate] + [
            ia.certificate for ia in self.intermediates.values()
        ]


class PublicPKI:
    """The assembled public PKI: CAs, cross-signs, stores, and the registry."""

    def __init__(self, factory: CertificateFactory):
        self.factory = factory
        self.cas: Dict[str, PublicCA] = {}
        #: cross-signed twins: label -> the re-issued IssuingAuthority.
        self.cross_signed: Dict[str, IssuingAuthority] = {}
        self._registry: Optional[PublicDBRegistry] = None

    def add_ca(self, ca: PublicCA) -> PublicCA:
        self.cas[ca.name] = ca
        self._registry = None
        return ca

    def ca(self, ca_name: str) -> PublicCA:
        return self.cas[ca_name]

    def add_cross_sign(self, label: str, signer: IssuingAuthority,
                       existing: IssuingAuthority) -> IssuingAuthority:
        twin = self.factory.cross_sign(signer, existing)
        self.cross_signed[label] = twin
        self._registry = None
        return twin

    # -- registry construction ---------------------------------------------------

    @property
    def registry(self) -> PublicDBRegistry:
        """Root stores + CCADB assembled from the current CA set (cached)."""
        if self._registry is None:
            self._registry = self._build_registry()
        return self._registry

    def _build_registry(self) -> PublicDBRegistry:
        stores = {store_name: RootStore(store_name) for store_name in STORE_NAMES}
        ccadb = CCADB()
        for ca in self.cas.values():
            for store_name in ca.store_membership:
                stores[store_name].add_certificate(ca.root.certificate)
            ccadb.add_root(ca.root.certificate,
                           programs=tuple(ca.store_membership))
            for ia in ca.intermediates.values():
                ccadb.add_intermediate(ia.certificate,
                                       programs=tuple(ca.store_membership))
        for twin in self.cross_signed.values():
            ccadb.add_intermediate(twin.certificate)
        return PublicDBRegistry(list(stores.values()), ccadb)

    def cross_sign_disclosures(self) -> list[tuple[DistinguishedName, DistinguishedName]]:
        """(subject, alternate issuer) pairs, as CAs publicly disclose [32]."""
        return [
            (twin.certificate.subject, twin.certificate.issuer)
            for twin in self.cross_signed.values()
        ]

    def all_public_certificates(self) -> list[Certificate]:
        certs: list[Certificate] = []
        for ca in self.cas.values():
            certs.extend(ca.all_certificates())
        certs.extend(t.certificate for t in self.cross_signed.values())
        return certs


def _ca(factory: CertificateFactory, pki: PublicPKI, ca_name: str,
        root_dn: DistinguishedName,
        intermediates: Iterable[tuple[str, DistinguishedName]],
        stores: tuple[str, ...] = STORE_NAMES) -> PublicCA:
    root = factory.root(root_dn)
    ca = PublicCA(ca_name, root, store_membership=stores)
    for label, dn in intermediates:
        ca.intermediates[label] = factory.intermediate(root, dn)
    return pki.add_ca(ca)


def build_public_pki(seed: int | str = 0) -> PublicPKI:
    """Instantiate the full public cast deterministically from ``seed``."""
    factory = CertificateFactory(seed=f"public-pki:{seed}")
    pki = PublicPKI(factory)

    lets_encrypt = _ca(
        factory, pki, "lets_encrypt",
        name("ISRG Root X1", o="Internet Security Research Group", c="US"),
        [("R3", name("R3", o="Let's Encrypt", c="US")),
         ("E1", name("E1", o="Let's Encrypt", c="US"))],
    )
    identrust = _ca(
        factory, pki, "identrust",
        name("DST Root CA X3", o="Digital Signature Trust Co.", c="US"),
        [],
    )
    digicert = _ca(
        factory, pki, "digicert",
        name("DigiCert Global Root CA", o="DigiCert Inc", ou="www.digicert.com", c="US"),
        [("tls2020", name("DigiCert TLS RSA SHA256 2020 CA1", o="DigiCert Inc", c="US")),
         ("sha2", name("DigiCert SHA2 Secure Server CA", o="DigiCert Inc", c="US"))],
    )
    sectigo = _ca(
        factory, pki, "sectigo",
        name("AAA Certificate Services", o="Comodo CA Limited", c="GB"),
        [],
    )
    usertrust = _ca(
        factory, pki, "usertrust",
        name("USERTrust RSA Certification Authority", o="The USERTRUST Network", c="US"),
        [("sectigo_dv", name("Sectigo RSA Domain Validation Secure Server CA",
                             o="Sectigo Limited", c="GB"))],
    )
    _ca(
        factory, pki, "comodo",
        name("COMODO RSA Certification Authority", o="COMODO CA Limited", c="GB"),
        [("dv", name("COMODO RSA Domain Validation Secure Server CA",
                     o="COMODO CA Limited", c="GB"))],
    )
    _ca(
        factory, pki, "godaddy",
        name("Go Daddy Root Certificate Authority - G2", o="GoDaddy.com, Inc.", c="US"),
        [("g2", name("Go Daddy Secure Certificate Authority - G2",
                     o="GoDaddy.com, Inc.", c="US"))],
    )
    _ca(
        factory, pki, "globalsign",
        name("GlobalSign Root CA", o="GlobalSign nv-sa", ou="Root CA", c="BE"),
        [("ov2018", name("GlobalSign RSA OV SSL CA 2018", o="GlobalSign nv-sa", c="BE"))],
    )
    _ca(
        factory, pki, "symantec",
        name("VeriSign Class 3 Public Primary Certification Authority - G5",
             o="VeriSign, Inc.", c="US"),
        [("class3_g4", name("Symantec Class 3 Secure Server CA - G4",
                            o="Symantec Corporation", c="US"))],
    )
    _ca(
        factory, pki, "amazon",
        name("Amazon Root CA 1", o="Amazon", c="US"),
        [("m02", name("Amazon RSA 2048 M02", o="Amazon", c="US"))],
    )
    # Government anchors with deliberately partial store membership.
    _ca(
        factory, pki, "federal_pki",
        name("Federal Common Policy CA", o="U.S. Government", ou="FPKI", c="US"),
        [("verizon_ssp", name("Verizon SSP CA A2", o="Verizon Business", c="US"))],
        stores=("Microsoft",),
    )
    _ca(
        factory, pki, "kisa",
        name("KISA RootCA 1", o="KISA", ou="Korea Certification Authority Central", c="KR"),
        [("gpki", name("GPKIRootCA1", o="Government of Korea", c="KR"))],
        stores=("Microsoft", "Apple"),
    )
    _ca(
        factory, pki, "icp_brasil",
        name("Autoridade Certificadora Raiz Brasileira v5",
             o="ICP-Brasil", ou="Instituto Nacional de Tecnologia da Informacao - ITI",
             c="BR"),
        [("ssl", name("AC Certisign Multipla G7", o="ICP-Brasil", c="BR"))],
        stores=("Microsoft",),
    )

    # Canonical cross-signs (Appendix D.1 false-mismatch hazards).
    pki.add_cross_sign("R3-cross", identrust.root, lets_encrypt.intermediates["R3"])
    pki.add_cross_sign("USERTrust-cross", sectigo.root, usertrust.root)
    return pki
