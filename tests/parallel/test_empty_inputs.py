"""Empty-input edge cases: zero shards, zero chains, zero scan targets.

A filtered corpus (or an over-aggressive quarantine) can hand any engine
an empty work list; every fan-out path must return its empty result
shape instead of tripping over pool bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import ChainStructureAnalyzer
from repro.parallel import ingest_shards
from repro.parallel.analysis import analyze_partitions
from repro.scan.scanner import ActiveScanner


class TestEmptyIngest:
    @pytest.mark.parametrize("jobs", [None, 1, 4])
    def test_zero_shards(self, jobs):
        result = ingest_shards([], jobs=jobs)
        assert result.chains == {}
        assert result.cert_fingerprints == []
        assert result.ssl_rows == 0
        assert result.shard_count == 0
        assert result.supervisor is not None
        assert result.supervisor.results == []


class TestEmptyAnalysis:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_zero_chains_through_partition_engine(self, registry,
                                                  disclosures, jobs):
        enriched = analyze_partitions({}, registry=registry,
                                      disclosures=disclosures,
                                      interception_keys=frozenset(),
                                      jobs=jobs)
        assert enriched.categories == {}
        assert enriched.hybrid_by_key == {}
        assert enriched.classes == {}

    @pytest.mark.parametrize("jobs", [None, 2])
    def test_zero_chains_through_pipeline(self, registry, jobs):
        result = ChainStructureAnalyzer(registry).analyze_chains(
            {}, jobs=jobs)
        assert result.chains == {}
        assert result.categorized.summary_rows() is not None
        assert result.hybrid.analyses == []
        assert result.dga_clusters == []


class TestEmptyScan:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_zero_targets(self, jobs):
        assert ActiveScanner().scan_many([], jobs=jobs) == []
