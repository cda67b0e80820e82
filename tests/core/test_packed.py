"""Packed shard payloads: codec roundtrip and fold-vs-legacy equivalence."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.chain import ChainUsage, aggregate_chains
from repro.core.packed import (
    ChainFold,
    fold_ssl_segment,
    materialize_chains,
    pack_shard_payload,
    unpack_shard_payload,
)
from repro.parallel.worker import ShardTask, process_shard, \
    process_shard_columnar
from repro.zeek.format import read_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import certificate_map, iter_joined


def _usage(**overrides) -> ChainUsage:
    usage = ChainUsage(
        connections=3, established=2,
        client_ips={"10.0.0.1", "10.0.0.2"},
        ports=Counter({443: 2, 8443: 1}),
        sni_present=2, snis={"example.com", "münchen.example"},
        first_seen=1453939200.0, last_seen=1453939300.5,
        server_ips={"192.0.2.1"})
    for name, value in overrides.items():
        setattr(usage, name, value)
    return usage


def _x509_columns(n: int) -> dict:
    return {
        "ts": [1453939200.0 + i for i in range(n)],
        "fingerprint": [f"fp{i:02d}" for i in range(n)],
        "certificate.version": [3] * n,
        "certificate.serial": [f"{i:04X}" for i in range(n)],
        "certificate.subject": [f"CN=leaf{i},O=Täst" for i in range(n)],
        "certificate.issuer": ["CN=issuer"] * n,
        "certificate.not_valid_before": [1400000000.0] * n,
        "certificate.not_valid_after": [None] * n,
        "certificate.key_alg": ["rsa"] * n,
        "certificate.sig_alg": [None] * n,
        "certificate.key_length": [2048 if i % 2 else None
                                   for i in range(n)],
        "san.dns": [(f"a{i}.example", "b.example") if i % 2 else None
                    for i in range(n)],
        "basic_constraints.ca": [True, False, None][:1] * n,
        "basic_constraints.path_len": [None] * n,
    }


class TestPayloadCodec:
    def test_roundtrip_preserves_every_field_and_order(self):
        keys = [("fp00", "fp01"), ("fp01",)]
        usages = [_usage(),
                  _usage(connections=1, established=0, client_ips=set(),
                         ports=Counter({443: 1}), sni_present=0,
                         snis=set(), server_ips=set(),
                         first_seen=None, last_seen=None)]
        payload = pack_shard_payload(
            chain_keys=keys, usages=usages,
            cert_fingerprints=["fp00", "fp01", "fp02"],
            x509_columns=_x509_columns(3))
        assert isinstance(payload, bytes) and payload.startswith(b"RPK1")
        columns = unpack_shard_payload(payload)
        assert columns.chain_keys == keys
        assert columns.usages == usages
        # Counter *insertion order* survives: the reduce's merged output
        # ordering depends on it.
        assert list(columns.usages[0].ports.items()) == [(443, 2), (8443, 1)]
        assert columns.cert_fingerprints == ["fp00", "fp01", "fp02"]
        assert columns.x509_columns == _x509_columns(3)

    def test_empty_shard_roundtrips(self):
        payload = pack_shard_payload(chain_keys=[], usages=[],
                                     cert_fingerprints=[],
                                     x509_columns=_x509_columns(0))
        columns = unpack_shard_payload(payload)
        assert columns.chain_keys == []
        assert columns.usages == []
        assert columns.cert_fingerprints == []
        assert all(col == [] for col in columns.x509_columns.values())

    def test_bad_magic_rejected(self):
        payload = pack_shard_payload(chain_keys=[], usages=[],
                                     cert_fingerprints=[],
                                     x509_columns=_x509_columns(0))
        with pytest.raises(ValueError):
            unpack_shard_payload(b"XXXX" + payload[4:])

    def test_truncated_payload_rejected(self):
        payload = pack_shard_payload(
            chain_keys=[("fp00",)], usages=[_usage()],
            cert_fingerprints=["fp00"], x509_columns=_x509_columns(1))
        with pytest.raises(ValueError):
            unpack_shard_payload(payload[:len(payload) // 2])

    def test_shards_of_one_x509_log_share_one_section_decode(self):
        payloads = [
            pack_shard_payload(chain_keys=keys, usages=[_usage()] * len(keys),
                               cert_fingerprints=["fp00", "fp01", "fp02"],
                               x509_columns=_x509_columns(3))
            for keys in ([("fp00", "fp01")], [("fp02",), ("fp01",)])]
        sections = {}
        first, second = (unpack_shard_payload(payload, sections)
                         for payload in payloads)
        assert len(sections) == 1
        assert first.x509 is second.x509
        assert first.chain_keys == [("fp00", "fp01")]
        assert second.chain_keys == [("fp02",), ("fp01",)]
        assert second.x509_columns == _x509_columns(3)

    def test_materialize_preserves_chain_insertion_order(self):
        keys = [("fp01",), ("fp00", "fp01")]
        usages = [_usage(), _usage(connections=9)]
        certificates = {"fp00": object(), "fp01": object()}
        chains = materialize_chains(keys, usages, certificates)
        assert list(chains) == keys
        assert chains[("fp00", "fp01")].certificates == (
            certificates["fp00"], certificates["fp01"])
        assert chains[("fp01",)].usage is usages[0]


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    dataset = cached_campus_dataset(seed="packed-equivalence",
                                    scale="small")
    base = tmp_path_factory.mktemp("packed")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base))
    return ssl_path, x509_path


class TestFoldEquivalence:
    def test_columnar_shard_matches_legacy_aggregation(self, shard):
        ssl_path, x509_path = shard
        _, ssl_rows = read_zeek_log(ssl_path, compiled=False)
        _, x509_rows = read_zeek_log(x509_path, compiled=False)
        legacy = aggregate_chains(iter_joined(
            (SSLRecord.from_row(r) for r in ssl_rows),
            certificate_map(X509Record.from_row(r) for r in x509_rows)))

        aggregate = process_shard_columnar(ShardTask(
            index=0, ssl_path=ssl_path, x509_path=x509_path,
            columnar=True))
        columns = unpack_shard_payload(aggregate.payload)

        assert columns.chain_keys == list(legacy)
        assert columns.usages == [c.usage for c in legacy.values()]
        assert aggregate.aggregated == sum(
            c.usage.connections for c in legacy.values())

    def test_columnar_aggregate_counters_match_compiled_worker(self, shard):
        ssl_path, x509_path = shard
        task = ShardTask(index=0, ssl_path=ssl_path, x509_path=x509_path)
        compiled = process_shard(task)
        columnar = process_shard_columnar(ShardTask(
            index=0, ssl_path=ssl_path, x509_path=x509_path,
            columnar=True))
        for field_name in ("ssl_rows", "x509_rows", "joined",
                           "missing_certs", "aggregated", "skipped_empty",
                           "ssl_log_label", "x509_log_label"):
            assert getattr(columnar, field_name) \
                == getattr(compiled, field_name), field_name
        assert unpack_shard_payload(columnar.payload).chain_keys \
            == list(compiled.chains)

    def test_fold_resolves_keys_and_missing_against_known_fps(self):
        fold = ChainFold()
        fold_ssl_segment(
            fold, known_fps=frozenset({"fp-a", "fp-b"}),
            ts=[1.0, 2.0, 3.0],
            client_ip=["10.0.0.1", "10.0.0.2", None],
            server_ip=["192.0.2.1"] * 3,
            port=[443, 443, 8443],
            established=[True, False, True],
            sni_ids=[0, 0, 1], sni_values=["example.com", None],
            chain_ids=[0, 1, 0],
            chain_values=[("fp-a", "fp-ghost"), None])
        # Row 2 has no chain (None → empty key) and is skipped; the
        # ghost fingerprint counts as missing on each occurrence.
        assert fold.joined == 3
        assert fold.missing_certs == 2
        assert fold.aggregated == 2
        usage = fold.chains[("fp-a",)]
        assert usage.connections == 2
        assert usage.ports == Counter({443: 1, 8443: 1})
        # record() keeps None clients — exact legacy set semantics.
        assert usage.client_ips == {"10.0.0.1", None}
