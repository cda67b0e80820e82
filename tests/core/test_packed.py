"""Packed shard payloads: codec roundtrip and fold-vs-row-path equivalence."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.chain import ChainUsage, ObservedChain, aggregate_chains
from repro.core.packed import (
    ChainFold,
    fold_ssl_segment,
    materialize_chains,
    pack_shard_payload,
    pack_x509_section,
    unpack_shard_payload,
    unpack_x509_section,
)
from repro.parallel.pool import sharing
from repro.parallel.worker import (ShardTask, X509Task, process_shard,
                                   process_x509_log)
from repro.zeek.format import read_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import JoinStats, certificate_map, iter_joined

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


FPS = ["fp00", "fp01", "fp02"]
POSITIONS = {fp: i for i, fp in enumerate(FPS)}


def _roundtrip(keys, usages):
    """Pack, unpack and fold one shard's partial into an empty map."""
    columns = unpack_shard_payload(pack_shard_payload(
        chain_keys=keys, usages=usages, positions=POSITIONS))
    certificates = {fp: object() for fp in FPS}
    merged = {}
    materialize_chains(merged, columns, FPS, certificates)
    return merged, certificates


class TestPayloadCodec:
    def test_roundtrip_preserves_every_field_and_order(self):
        keys = [("fp00", "fp01"), ("fp01",)]
        usages = [_usage(),
                  _usage(connections=1, established=0, client_ips=set(),
                         ports=Counter({443: 1}), sni_present=0,
                         snis=set(), server_ips=set(),
                         first_seen=None, last_seen=None)]
        payload = pack_shard_payload(chain_keys=keys, usages=usages,
                                     positions=POSITIONS)
        assert isinstance(payload, bytes) and payload.startswith(b"RPK2")
        columns = unpack_shard_payload(payload)
        assert columns.chain_keys(FPS) == keys
        merged, _ = _roundtrip(keys, usages)
        assert list(merged) == keys
        assert [chain.usage for chain in merged.values()] == usages
        # Counter *insertion order* survives: the reduce's merged output
        # ordering depends on it.
        assert list(merged[keys[0]].usage.ports.items()) == \
            [(443, 2), (8443, 1)]

    def test_x509_section_roundtrips(self):
        section = pack_x509_section(_x509_columns(3))
        assert isinstance(section, bytes) and section.startswith(b"RPX1")
        decoded = unpack_x509_section(section)
        assert decoded.columns == _x509_columns(3)
        assert decoded.fingerprints == FPS

    def test_empty_shard_roundtrips(self):
        columns = unpack_shard_payload(pack_shard_payload(
            chain_keys=[], usages=[], positions={}))
        assert columns.chain_keys([]) == []
        merged = {}
        materialize_chains(merged, columns, [], {})
        assert merged == {}
        decoded = unpack_x509_section(pack_x509_section(_x509_columns(0)))
        assert decoded.fingerprints == []
        assert all(col == [] for col in decoded.columns.values())

    def test_bad_magic_rejected(self):
        payload = pack_shard_payload(chain_keys=[], usages=[], positions={})
        with pytest.raises(ValueError):
            unpack_shard_payload(b"XXXX" + payload[4:])
        section = pack_x509_section(_x509_columns(1))
        with pytest.raises(ValueError):
            unpack_x509_section(b"XXXX" + section[4:])
        # Neither layout decodes as the other.
        with pytest.raises(ValueError):
            unpack_shard_payload(section)
        with pytest.raises(ValueError):
            unpack_x509_section(payload)

    def test_truncated_payload_rejected(self):
        payload = pack_shard_payload(chain_keys=[("fp00",)],
                                     usages=[_usage()], positions=POSITIONS)
        with pytest.raises(ValueError):
            unpack_shard_payload(payload[:len(payload) // 2])
        section = pack_x509_section(_x509_columns(2))
        with pytest.raises(ValueError):
            unpack_x509_section(section[:len(section) // 2])

    def test_shards_of_one_x509_log_share_one_section_decode(self):
        """Chain payloads carry positions, not fingerprints: every shard
        of one log resolves its keys against the one decoded section."""
        section = unpack_x509_section(pack_x509_section(_x509_columns(3)))
        positions = {fp: i for i, fp in enumerate(section.fingerprints)}
        first, second = (
            unpack_shard_payload(pack_shard_payload(
                chain_keys=keys, usages=[_usage()] * len(keys),
                positions=positions))
            for keys in ([("fp00", "fp01")], [("fp02",), ("fp01",)]))
        assert first.chain_keys(section.fingerprints) == [("fp00", "fp01")]
        assert second.chain_keys(section.fingerprints) == \
            [("fp02",), ("fp01",)]
        assert second.key_positions == [2, 1]

    def test_materialize_preserves_chain_insertion_order(self):
        keys = [("fp01",), ("fp00", "fp01")]
        usages = [_usage(), _usage(connections=9)]
        merged, certificates = _roundtrip(keys, usages)
        assert list(merged) == keys
        assert merged[("fp00", "fp01")].certificates == (
            certificates["fp00"], certificates["fp01"])
        assert merged[("fp01",)].usage == usages[0]

    def test_materialize_folds_exactly_like_chain_usage_merge(self):
        """A key's later appearance adds into its usage with the same
        operations ChainUsage.merge performs: Counter key order, set
        contents and the timestamp window all match."""
        shard0 = [("fp01",), ("fp00", "fp01")]
        shard1 = [("fp02",), ("fp00", "fp01")]
        usages0 = [_usage(), _usage(ports=Counter({8443: 1, 443: 4}))]
        usages1 = [_usage(connections=2),
                   _usage(connections=5, established=1,
                          client_ips={"10.0.0.9", "10.0.0.1"},
                          ports=Counter({25: 2, 443: 1, 8443: 7}),
                          snis={"new.example"}, first_seen=1.0,
                          last_seen=2e9, server_ips={"192.0.2.7"})]
        merged = {}
        certificates = {fp: object() for fp in FPS}
        for keys, usages in ((shard0, usages0), (shard1, usages1)):
            materialize_chains(merged, unpack_shard_payload(
                pack_shard_payload(chain_keys=keys, usages=usages,
                                   positions=POSITIONS)),
                FPS, certificates)

        expected = {}
        for keys, usages in ((shard0, usages0), (shard1, usages1)):
            for key, usage in zip(keys, usages):
                copy = _usage()
                for name in ChainUsage.__dataclass_fields__:
                    value = getattr(usage, name)
                    setattr(copy, name, value.copy()
                            if hasattr(value, "copy") else value)
                if key in expected:
                    expected[key].usage.merge(copy)
                else:
                    expected[key] = ObservedChain(
                        tuple(certificates[fp] for fp in key), usage=copy)
        assert list(merged) == list(expected)
        for key, chain in expected.items():
            assert merged[key].usage == chain.usage
            assert list(merged[key].usage.ports) == list(chain.usage.ports)
            assert merged[key].certificates == chain.certificates
        assert list(merged[("fp00", "fp01")].usage.ports) == [8443, 443, 25]


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    dataset = cached_campus_dataset(seed="packed-equivalence",
                                    scale="small")
    base = tmp_path_factory.mktemp("packed")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base))
    return ssl_path, x509_path


def _row_path(ssl_path, x509_path, compiled):
    """The row-object reference: row readers, join, ``aggregate_chains``."""
    _, ssl_rows = read_zeek_log(ssl_path, compiled=compiled)
    _, x509_rows = read_zeek_log(x509_path, compiled=compiled)
    stats = JoinStats()
    chains = aggregate_chains(iter_joined(
        (SSLRecord.from_row(r) for r in ssl_rows),
        certificate_map(X509Record.from_row(r) for r in x509_rows),
        stats=stats))
    return ssl_rows, x509_rows, chains, stats


def _columnar_path(ssl_path, x509_path):
    """One x509 task, then one shard task folding against its section."""
    x509 = process_x509_log(X509Task(index=0, x509_path=x509_path))
    section = unpack_x509_section(x509.section)
    positions = {fp: i for i, fp in enumerate(section.fingerprints)}
    with sharing({x509_path: positions}):
        partial = process_shard(ShardTask(index=0, ssl_path=ssl_path,
                                          x509_path=x509_path))
    return x509, section, partial


class TestFoldEquivalence:
    def test_columnar_shard_matches_legacy_aggregation(self, shard):
        ssl_path, x509_path = shard
        _, _, legacy, _ = _row_path(ssl_path, x509_path, compiled=False)
        _, section, partial = _columnar_path(ssl_path, x509_path)
        columns = unpack_shard_payload(partial.payload)
        assert columns.chain_keys(section.fingerprints) == list(legacy)
        merged = {}
        materialize_chains(merged, columns, section.fingerprints,
                           {fp: fp for fp in section.fingerprints})
        assert [chain.usage for chain in merged.values()] == \
            [chain.usage for chain in legacy.values()]
        assert partial.aggregated == sum(
            c.usage.connections for c in legacy.values())

    def test_columnar_aggregate_counters_match_compiled_worker(self, shard):
        """Tallies and labels against the compiled row readers feeding
        ``aggregate_chains``."""
        ssl_path, x509_path = shard
        ssl_rows, x509_rows, chains, stats = _row_path(
            ssl_path, x509_path, compiled=True)
        x509, section, partial = _columnar_path(ssl_path, x509_path)
        aggregated = sum(c.usage.connections for c in chains.values())
        assert partial.ssl_rows == len(ssl_rows)
        assert x509.rows == len(x509_rows)
        assert partial.joined == stats.joined
        assert partial.missing_certs == stats.missing_certs
        assert partial.aggregated == aggregated
        assert partial.skipped_empty == stats.joined - aggregated
        assert (partial.ssl_log_label, x509.log_label) == ("ssl", "x509")
        assert section.fingerprints == list(dict.fromkeys(
            row["fingerprint"] for row in x509_rows))
        assert unpack_shard_payload(partial.payload).chain_keys(
            section.fingerprints) == list(chains)

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
