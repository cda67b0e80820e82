"""Parallel analysis == serial analysis, byte for byte.

The enrichment engine's central guarantee: for the same chain map, every
paper output — Table 1/2/3/6/7/8, Figure 6, the §4.3 single-certificate
stats, and the per-category chain orderings — is identical whether the
stages run serially (``jobs=None``), inline through the partition engine
(``jobs=1``), or across a real process pool, and identical at every
``jobs`` value.  Counter-valued metrics must be invariant too: workers
stay silent and the driver emits canonical values from the merge.
"""

from __future__ import annotations

import glob
import io
import os
import pickle

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.categorization import ChainCategory
from repro.core.chain import aggregate_chains
from repro.core.matching import analyze_structure
from repro.obs import instruments
from repro.obs.metrics import get_registry
from repro.parallel import analyze_partitions, ingest_logs, partition_index
from repro.parallel.analysis import (DEFAULT_PARTITIONS, AnalysisTask,
                                     process_partition)
from repro.parallel.supervisor import SupervisorConfig
from repro.resilience import CheckpointStore
from repro.resilience.journal import RunJournal

JOBS_MATRIX = [1, 2, 4]


@pytest.fixture(scope="module")
def dataset():
    """A small campaign with CT index, vendor directory and disclosures —
    so Table 1 (interception) and cross-sign bridging are non-trivial."""
    return cached_campus_dataset(seed="ana-eq", scale="small")


@pytest.fixture(scope="module")
def chains(dataset):
    return aggregate_chains(dataset.joined())


def render(result):
    """Every observable output of one analysis, orderings included."""
    return {
        "table1": result.interception.category_table(result.chains),
        "table2": result.categorized.summary_rows(),
        "table3": result.hybrid.table3_rows(),
        "table6": result.hybrid.table6_rows(),
        "table7": result.hybrid.table7_rows(),
        "table8": {c.value: result.multicert_path_stats(c)
                   for c in ChainCategory},
        "figure6": result.hybrid.figure6_histogram(),
        "singles": {c.value: result.single_cert_stats(c)
                    for c in ChainCategory},
        "orders": {c.value: [chain.key
                             for chain in result.categorized.chains(c)]
                   for c in ChainCategory},
    }


class TestAnalysisJobsInvariance:
    def test_tables_identical_across_jobs_and_vs_serial(self, dataset,
                                                        chains):
        get_registry().reset()
        serial = render(dataset.analyzer().analyze_chains(chains))
        # The corpus exercises every comparison surface.
        assert serial["table2"]
        assert sum(row["issuers"] for row in serial["table1"]) > 0
        assert serial["table3"]
        assert any(count for _, count in serial["figure6"])
        for jobs in JOBS_MATRIX:
            get_registry().reset()
            result = dataset.analyzer().analyze_chains(chains, jobs=jobs)
            assert render(result) == serial

    def test_counter_metrics_identical_across_jobs(self, dataset, chains):
        # Everything except wall-clock timing and the worker gauge must be
        # invariant under jobs: the partition count is fixed, workers run
        # with metrics disabled, and the driver emits canonical values.
        snapshots = []
        for jobs in JOBS_MATRIX:
            get_registry().reset()
            dataset.analyzer().analyze_chains(chains, jobs=jobs)
            snapshot = get_registry().snapshot()
            snapshots.append({
                family: [(s["labels"], s["value"]) for s in data["samples"]]
                for family, data in snapshot.items()
                if data["kind"] == "counter"
            })
        assert snapshots[0]["repro_analysis_chains_total"]
        assert snapshots[0]["repro_analysis_partitions_total"] == \
            [({"outcome": "ok"}, float(DEFAULT_PARTITIONS))]
        for snapshot in snapshots[1:]:
            assert snapshot == snapshots[0]

    def test_pool_path_matches_inline(self, dataset, chains, monkeypatch):
        """Force a real ProcessPoolExecutor (the CPU clamp would otherwise
        run inline on small boxes) — the tasks and partials must survive
        the pickle boundary with identical output."""
        get_registry().reset()
        baseline = render(dataset.analyzer().analyze_chains(chains, jobs=1))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        get_registry().reset()
        pooled = dataset.analyzer().analyze_chains(chains, jobs=2)
        assert render(pooled) == baseline


class TestEagerStructures:
    def test_structure_cache_prefilled_for_every_multicert_chain(
            self, dataset, chains):
        """Both structures of every multi-certificate chain come from the
        engine: serving them is a cache hit, never a pair-match pass."""
        result = dataset.analyzer().analyze_chains(chains, jobs=1)
        multi = [c for c in chains.values() if c.length > 1]
        assert multi  # non-trivial corpus
        hits = instruments.STRUCTURE_CACHE_HIT.value
        misses = instruments.STRUCTURE_CACHE_MISS.value
        matches = (instruments.MATCH_MEMO_HIT.value
                   + instruments.MATCH_MEMO_MISS.value)
        for chain in multi:
            for require_leaf in (True, False):
                result.structure_of(chain, require_leaf=require_leaf)
        assert instruments.STRUCTURE_CACHE_MISS.value == misses
        assert instruments.STRUCTURE_CACHE_HIT.value - hits \
            == 2 * len(multi)
        assert instruments.MATCH_MEMO_HIT.value \
            + instruments.MATCH_MEMO_MISS.value == matches

    def test_prefilled_structures_match_fresh_analysis(self, dataset,
                                                       chains):
        result = dataset.analyzer().analyze_chains(chains, jobs=1)
        disclosures = dataset.disclosures
        for chain in list(chains.values())[:25]:
            if chain.length <= 1:
                continue
            for require_leaf in (True, False):
                cached = result.structure_of(chain,
                                             require_leaf=require_leaf)
                fresh = analyze_structure(chain.certificates,
                                          disclosures=disclosures,
                                          require_leaf=require_leaf)
                assert cached.pair_matches == fresh.pair_matches
                assert cached.segments == fresh.segments
                assert cached.complete_paths == fresh.complete_paths
                assert cached.best_path == fresh.best_path
                assert cached.mismatch_ratio == fresh.mismatch_ratio

    def test_hybrid_analyses_reference_driver_chains(self, dataset, chains):
        """Worker output crossed a pickle boundary; the driver must rebind
        analyses to the chain map's own objects."""
        result = dataset.analyzer().analyze_chains(chains, jobs=2)
        for analysis in result.hybrid.analyses:
            assert analysis.chain is chains[analysis.chain.key]
            assert analysis.structure.certificates \
                is analysis.chain.certificates


class _NoCertificates(pickle.Unpickler):
    """Loads a pickle unless it holds a certificate object graph."""

    def find_class(self, module, name):
        if module == "repro.x509" or module.startswith("repro.x509."):
            raise pickle.UnpicklingError(f"{module}.{name} in a partial")
        return super().find_class(module, name)


def _load_without_certificates(data: bytes):
    return _NoCertificates(io.BytesIO(data)).load()


class TestPartialsCarryDerivedStateOnly:
    """What crosses a pool or store boundary after enrichment is derived
    state — bytes and small tuples — never a certificate object graph."""

    def test_journal_partials_and_enrichment_checkpoint(self, dataset,
                                                        chains, tmp_path):
        with RunJournal(str(tmp_path / "journal")) as journal:
            result = dataset.analyzer().analyze_chains(
                chains, jobs=1,
                checkpoint=CheckpointStore(str(tmp_path / "checkpoints")),
                supervise=SupervisorConfig(journal=journal))
        assert result.hybrid.analyses  # non-trivial corpus
        partials = glob.glob(str(tmp_path / "journal" / "partials" / "*"))
        assert len(partials) == DEFAULT_PARTITIONS
        enrichment = tmp_path / "checkpoints" / "stage-enrichment.ckpt"
        for path in partials + [str(enrichment)]:
            with open(path, "rb") as handle:
                envelope = _load_without_certificates(handle.read())
            assert envelope["payload"] is not None

    def test_process_partition_result(self, dataset, chains):
        task = AnalysisTask(index=0, chains=tuple(chains.values()),
                            registry=dataset.registry,
                            disclosures=dataset.disclosures,
                            interception_keys=frozenset())
        partial = process_partition(task)
        assert partial.hybrid and partial.structures
        loaded = _load_without_certificates(pickle.dumps(partial))
        assert loaded.categories == partial.categories
        assert loaded.structures == partial.structures


class TestPartitioning:
    def test_partition_index_is_stable_and_in_range(self, chains):
        for key in chains:
            index = partition_index(key, DEFAULT_PARTITIONS)
            assert 0 <= index < DEFAULT_PARTITIONS
            assert index == partition_index(key, DEFAULT_PARTITIONS)

    def test_partitioning_spreads_a_real_corpus(self, chains):
        used = {partition_index(key, DEFAULT_PARTITIONS) for key in chains}
        assert len(used) > 1

    def test_partition_count_independent_of_jobs(self, dataset, chains):
        enrichments = [
            analyze_partitions(chains, registry=dataset.registry,
                               disclosures=dataset.disclosures, jobs=jobs)
            for jobs in JOBS_MATRIX]
        baseline = enrichments[0]
        assert baseline.partitions == DEFAULT_PARTITIONS
        for enriched in enrichments[1:]:
            assert enriched.partitions == baseline.partitions
            assert enriched.categories == baseline.categories
            assert sorted(enriched.hybrid_by_key) == \
                sorted(baseline.hybrid_by_key)


class TestIngestJobsClamp:
    def test_requested_jobs_recorded_and_clamped(self, dataset, tmp_path):
        ssl_path, x509_path = dataset.write_zeek_logs(str(tmp_path))
        ingest = ingest_logs(ssl_path, x509_path, jobs=64)
        assert ingest.requested_jobs == 64
        # One shard and a finite CPU count both cap the effective value.
        assert ingest.jobs == 1
        assert ingest.jobs <= (os.cpu_count() or 1)
