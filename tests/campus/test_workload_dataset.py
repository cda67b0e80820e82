"""Workload generation and dataset assembly."""

from __future__ import annotations

from collections import Counter
from datetime import timezone

import pytest

from repro.campus import (
    SMALL_SCALE,
    ChainSpec,
    ClientMix,
    ClientPools,
    STUDY_DAYS,
    STUDY_START,
    WorkloadGenerator,
    build_campus_dataset,
    cached_campus_dataset,
    resolve_scale,
)
from repro.campus.spec import MIX_PRESETS
from repro.x509 import CertificateFactory, name


@pytest.fixture(scope="module")
def dataset():
    return cached_campus_dataset(seed=5, scale="small")


class TestClientMix:
    def test_weights_normalized(self):
        mix = ClientMix(browser=2.0, permissive=2.0)
        weights = dict(mix.weights())
        assert weights == {"browser": 0.5, "permissive": 0.5}

    def test_zero_mix_rejected(self):
        with pytest.raises(ValueError):
            ClientMix().weights()

    def test_presets_valid(self):
        for preset in MIX_PRESETS.values():
            total = sum(w for _, w in preset.weights())
            assert total == pytest.approx(1.0)


class TestClientPools:
    def test_pool_sizes_scale_with_paper_ratios(self):
        pools = ClientPools(seed=1, scale=SMALL_SCALE)
        sizes = pools.sizes()
        assert sizes["nonpub"] > sizes["intercept:Security & Network"] > \
            sizes["intercept:Health & Education"]
        assert sizes["hybrid"] > 0

    def test_unknown_pool_falls_back_to_general(self):
        pools = ClientPools(seed=1, scale=SMALL_SCALE)
        assert pools.pool("nope") == pools.pool("general")

    def test_ips_are_rfc1918(self):
        pool = ClientPools(seed=1, scale=SMALL_SCALE).pool("hybrid")
        for index in range(20):
            assert pool[index].startswith("10.")


class TestWorkloadGenerator:
    @pytest.fixture()
    def spec(self, registry):
        factory = CertificateFactory(seed=8)
        cert = factory.self_signed(name("w.example"))
        return ChainSpec(
            chain=(cert,), hostname="w.example", category_truth="nonpub",
            mix=ClientMix(permissive=1.0), port_model="nonpub_single",
            mean_connections=30, sni_rate=0.5, server_id="srv-w",
            client_pool="nonpub",
        )

    def test_timestamps_inside_study_window(self, registry, spec):
        generator = WorkloadGenerator(registry, seed=2, scale=SMALL_SCALE)
        for record in generator.generate_for_spec(spec):
            dt = record.timestamp.astimezone(timezone.utc)
            assert STUDY_START <= dt
            assert (dt - STUDY_START).days <= STUDY_DAYS

    def test_sni_rate_respected(self, registry, spec):
        generator = WorkloadGenerator(registry, seed=2, scale=SMALL_SCALE)
        records = list(generator.generate_for_spec(spec))
        with_sni = sum(1 for r in records if r.sni)
        assert 0 < with_sni < len(records)

    def test_server_ip_stable_per_server(self, registry, spec):
        generator = WorkloadGenerator(registry, seed=2, scale=SMALL_SCALE)
        ips = {r.server.ip for r in generator.generate_for_spec(spec)}
        assert len(ips) == 1

    def test_outlier_spec_observed_once(self, registry, spec):
        spec.labels["outlier"] = True
        spec.mean_connections = 1
        generator = WorkloadGenerator(registry, seed=2, scale=SMALL_SCALE)
        assert len(list(generator.generate_for_spec(spec))) == 1

    def test_determinism(self, registry, spec):
        a = WorkloadGenerator(registry, seed=2, scale=SMALL_SCALE)
        b = WorkloadGenerator(registry, seed=2, scale=SMALL_SCALE)
        rows_a = [(r.uid, r.client.ip, r.timestamp, r.established)
                  for r in a.generate_for_spec(spec)]
        rows_b = [(r.uid, r.client.ip, r.timestamp, r.established)
                  for r in b.generate_for_spec(spec)]
        assert rows_a == rows_b


class TestDataset:
    def test_resolve_scale(self):
        assert resolve_scale("small") is SMALL_SCALE
        assert resolve_scale(SMALL_SCALE) is SMALL_SCALE
        with pytest.raises(ValueError):
            resolve_scale("gigantic")

    def test_cached_returns_same_object(self):
        a = cached_campus_dataset(seed=5, scale="small")
        b = cached_campus_dataset(seed=5, scale="small")
        assert a is b

    def test_build_deterministic(self):
        a = build_campus_dataset(seed=6, scale="small")
        b = build_campus_dataset(seed=6, scale="small")
        assert [r.uid for r in a.ssl_records] == [r.uid for r in b.ssl_records]
        assert [r.fingerprint for r in a.x509_records] == \
            [r.fingerprint for r in b.x509_records]

    def test_spec_keys_unique(self, dataset):
        keys = [s.key for s in dataset.specs]
        assert len(keys) == len(set(keys))

    def test_joined_references_resolve(self, dataset):
        from repro.zeek.tap import join_logs
        joined = join_logs(dataset.ssl_records, dataset.x509_records,
                           strict=True)
        assert len(joined) == len(dataset.ssl_records)

    def test_tls13_connections_have_no_chain(self, dataset):
        tls13 = [r for r in dataset.ssl_records if r.version == "TLSv13"]
        assert tls13, "workload should include TLS 1.3 connections"
        assert all(not r.cert_chain_fps for r in tls13)

    def test_write_zeek_logs_round_trip(self, dataset, tmp_path):
        ssl_path, x509_path = dataset.write_zeek_logs(str(tmp_path))
        from repro.zeek import read_zeek_log
        ssl_reader, ssl_rows = read_zeek_log(ssl_path)
        x509_reader, x509_rows = read_zeek_log(x509_path)
        assert ssl_reader.path == "ssl"
        assert x509_reader.path == "x509"
        assert len(ssl_rows) == len(dataset.ssl_records)
        assert len(x509_rows) == len(dataset.x509_records)

    def test_ground_truth_covers_observed_chains(self, dataset):
        truth = dataset.truth_by_chain_key()
        observed = dataset.analyze().chains
        covered = sum(1 for key in observed if key in truth)
        assert covered == len(observed)
