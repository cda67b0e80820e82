"""Chain aggregation, the analysis pipeline facade, cross-sign candidate
detection, and report rendering."""

from __future__ import annotations

import pytest

from repro.core.chain import ChainUsage, ObservedChain, aggregate_chains
from repro.core.crosssign import detect_cross_sign_candidates
from repro.core.pipeline import ChainStructureAnalyzer
from repro.core.report import format_count, format_pct, render_table, side_by_side
from repro.tls import HandshakeSimulator, PermissivePolicy, TLSClient, TLSServer
from repro.x509 import CertificateFactory, name
from repro.zeek import MonitoringTap, join_logs


@pytest.fixture()
def joined(pki):
    factory = CertificateFactory(seed=81)
    r3 = pki.ca("lets_encrypt").intermediates["R3"]
    leaf_a = factory.leaf(r3, name("agg-a.example"))
    leaf_b = factory.leaf(r3, name("agg-b.example"))
    sim = HandshakeSimulator(seed=4)
    tap = MonitoringTap()
    from datetime import datetime, timezone
    when = datetime(2021, 4, 1, tzinfo=timezone.utc)
    server_a = TLSServer("203.0.113.1", 443, (leaf_a, r3.certificate))
    server_b = TLSServer("203.0.113.2", 8443, (leaf_b, r3.certificate))
    for i in range(4):
        client = TLSClient(f"10.0.0.{i % 2}", policy=PermissivePolicy())
        tap.observe(sim.connect(client, server_a, sni="agg-a.example",
                                when=when).record)
    tap.observe(sim.connect(TLSClient("10.0.0.9",
                                      policy=PermissivePolicy()),
                            server_b, when=when).record)
    return join_logs(tap.ssl_records, tap.x509_records)


class TestAggregation:
    def test_distinct_chains(self, joined):
        chains = aggregate_chains(joined)
        assert len(chains) == 2

    def test_usage_accumulation(self, joined):
        chains = aggregate_chains(joined)
        big = max(chains.values(), key=lambda c: c.usage.connections)
        assert big.usage.connections == 4
        assert len(big.usage.client_ids) == 2
        assert big.usage.port_counter()[443] == 4
        assert big.usage.sni_rate == 1.0
        assert big.usage.first_seen is not None

    def test_empty_chains_skipped(self, joined):
        from dataclasses import replace
        stripped = [type(j)(ssl=replace(j.ssl, cert_chain_fps=()), chain=())
                    for j in joined[:1]] + joined[1:]
        chains = aggregate_chains(stripped)
        total = sum(c.usage.connections for c in chains.values())
        assert total == len(joined) - 1

    def test_usage_merge(self):
        a, b = ChainUsage(), ChainUsage()
        a.record(established=True, client_ip="1", server_ip="s", port=443,
                 sni="x", ts=10.0)
        b.record(established=False, client_ip="2", server_ip="s", port=80,
                 sni=None, ts=5.0)
        a.merge(b)
        assert a.connections == 2
        assert a.established == 1
        assert sorted(a.client_names()) == ["1", "2"]
        assert a.first_seen == 5.0
        assert a.last_seen == 10.0

    def test_establishment_rate_empty(self):
        assert ChainUsage().establishment_rate == 0.0


class TestPipelineFacade:
    def test_analyze_without_ct(self, registry, joined):
        analyzer = ChainStructureAnalyzer(registry)
        result = analyzer.analyze_connections(joined)
        assert result.interception.issuer_count == 0
        assert result.categorized.total_chains == 2

    def test_structure_cache(self, registry, joined):
        analyzer = ChainStructureAnalyzer(registry)
        result = analyzer.analyze_connections(joined)
        chain = next(iter(result.chains.values()))
        first = result.structure_of(chain)
        second = result.structure_of(chain)
        assert first is second
        relaxed = result.structure_of(chain, require_leaf=True)
        assert relaxed is not first

    def test_establishment_pct(self, registry, joined):
        analyzer = ChainStructureAnalyzer(registry)
        result = analyzer.analyze_connections(joined)
        from repro.core import ChainCategory
        assert result.establishment_pct(ChainCategory.PUBLIC_ONLY) == 100.0


class TestCrossSignCandidates:
    def test_detects_validating_mismatches(self, factory):
        chain = [factory.self_signed(name("a")), factory.self_signed(name("b"))]
        candidates = detect_cross_sign_candidates(
            [chain], [True], [[0]])
        assert len(candidates) == 1
        assert candidates[0].mismatch_positions == (0,)

    def test_ignores_failing_chains(self, factory):
        chain = [factory.self_signed(name("a"))]
        assert detect_cross_sign_candidates([chain], [False], [[0]]) == []

    def test_length_mismatch_rejected(self, factory):
        chain = [factory.self_signed(name("a"))]
        with pytest.raises(ValueError):
            detect_cross_sign_candidates([chain], [True, False], [[0]])


class TestReport:
    def test_render_alignment(self):
        table = render_table(["a", "bbb"], [["x", 1], ["yyyy", 22]],
                             title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        widths = {len(line) for line in lines[1:]}
        assert len(widths) <= 2  # header/rule/rows aligned

    def test_render_arity_check(self):
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "extra"]])

    def test_format_helpers(self):
        assert format_pct(12.3456) == "12.35%"
        assert format_count(1234567) == "1,234,567"
        assert side_by_side("m", 1, 2, "n") == ["m", 1, 2, "n"]
