"""Shared fixtures: a deterministic public PKI and certificate factory."""

from __future__ import annotations

import pytest

from repro.core.classification import CertificateClassifier
from repro.core.crosssign import CrossSignDisclosures
from repro.truststores import build_public_pki
from repro.x509 import CertificateFactory


@pytest.fixture(scope="session")
def pki():
    return build_public_pki(seed=42)


@pytest.fixture(scope="session")
def registry(pki):
    return pki.registry


@pytest.fixture(scope="session")
def disclosures(pki):
    return CrossSignDisclosures.from_pki(pki)


@pytest.fixture()
def classifier(registry):
    return CertificateClassifier(registry)


@pytest.fixture()
def factory():
    return CertificateFactory(seed=1234)
