"""Monitoring tap, record reconstruction, and SSL↔X509 joining."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest

from repro.tls import (
    HandshakeSimulator,
    PermissivePolicy,
    TLSClient,
    TLSServer,
)
from repro.x509 import CertificateFactory, name
from repro.zeek import (
    MonitoringTap,
    join_logs,
    reconstruct_certificate,
    x509_record_from_certificate,
)


@pytest.fixture()
def observed(pki):
    factory = CertificateFactory(seed=31)
    r3 = pki.ca("lets_encrypt").intermediates["R3"]
    leaf = factory.leaf(r3, name("lib.campus.edu"), dns_names=["lib.campus.edu"])
    server = TLSServer("198.51.100.9", 443, (leaf, r3.certificate))
    sim = HandshakeSimulator(seed=2)
    client = TLSClient("10.9.8.7", policy=PermissivePolicy())
    when = datetime(2021, 1, 5, tzinfo=timezone.utc)
    tap = MonitoringTap()
    for _ in range(3):
        tap.observe(sim.connect(client, server, sni="lib.campus.edu",
                                when=when).record)
    return tap, leaf, r3.certificate


class TestTap:
    def test_ssl_rows_per_connection(self, observed):
        tap, *_ = observed
        assert len(tap.ssl_records) == 3

    def test_x509_deduplicated(self, observed):
        tap, *_ = observed
        assert len(tap.x509_records) == 2

    def test_chain_fingerprints_reference_x509(self, observed):
        tap, leaf, inter = observed
        fps = {r.fingerprint for r in tap.x509_records}
        for ssl in tap.ssl_records:
            assert set(ssl.cert_chain_fps) <= fps


class TestReconstruction:
    def test_round_trip_preserves_identity(self, observed):
        _, leaf, _ = observed
        record = x509_record_from_certificate(
            leaf, datetime(2021, 1, 5, tzinfo=timezone.utc))
        rebuilt = reconstruct_certificate(record)
        assert rebuilt.fingerprint == leaf.fingerprint
        assert rebuilt.subject.matches(leaf.subject)
        assert rebuilt.issuer.matches(leaf.issuer)
        assert rebuilt.serial == leaf.serial

    def test_round_trip_preserves_basic_constraints_tri_state(self, factory):
        bare = factory.self_signed(name("no-ext.local"))
        ts = datetime(2021, 1, 1, tzinfo=timezone.utc)
        rebuilt = reconstruct_certificate(x509_record_from_certificate(bare, ts))
        assert not rebuilt.extensions.has_basic_constraints()

        root = factory.root(name("CA Root")).certificate
        rebuilt_root = reconstruct_certificate(
            x509_record_from_certificate(root, ts))
        assert rebuilt_root.extensions.declares_ca()

    def test_reconstructed_has_no_ground_truth(self, observed):
        _, leaf, _ = observed
        ts = datetime(2021, 1, 5, tzinfo=timezone.utc)
        rebuilt = reconstruct_certificate(x509_record_from_certificate(leaf, ts))
        assert rebuilt.true_role is None
        assert rebuilt.signing_key_id is None

    def test_san_preserved(self, observed):
        _, leaf, _ = observed
        ts = datetime(2021, 1, 5, tzinfo=timezone.utc)
        rebuilt = reconstruct_certificate(x509_record_from_certificate(leaf, ts))
        assert rebuilt.extensions.subject_alt_name.matches_host("lib.campus.edu")


class TestJoin:
    def test_join_restores_chain_order(self, observed):
        tap, leaf, inter = observed
        joined = join_logs(tap.ssl_records, tap.x509_records)
        assert len(joined) == 3
        for j in joined:
            assert [c.fingerprint for c in j.chain] == [
                leaf.fingerprint, inter.fingerprint]

    def test_join_missing_certificate_lenient(self, observed):
        tap, leaf, _ = observed
        # Drop the intermediate's X509 row, as a log-rotation race would.
        records = [r for r in tap.x509_records if r.fingerprint == leaf.fingerprint]
        joined = join_logs(tap.ssl_records, records)
        assert all(len(j.chain) == 1 for j in joined)

    def test_join_missing_certificate_strict(self, observed):
        tap, leaf, _ = observed
        records = [r for r in tap.x509_records if r.fingerprint == leaf.fingerprint]
        with pytest.raises(KeyError):
            join_logs(tap.ssl_records, records, strict=True)
