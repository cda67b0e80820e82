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

import dataclasses
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
from repro.parallel import (analysis, analyze_partitions, engine,
                            ingest_logs, partition_index)
from repro.parallel.analysis import (DEFAULT_PARTITIONS, AnalysisPartial,
                                     AnalysisTask, EnrichedChains,
                                     PartitionContext, process_partition)
from repro.parallel.pool import sharing
from repro.parallel.supervisor import SupervisorConfig
from repro.resilience import CheckpointStore
from repro.resilience.checkpoint import input_fingerprint
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


class TestDeferredStructures:
    """No partition builds a structure Table 8 may never read: every
    path computes a chain's structures on first ``structure_of``."""

    def test_partitions_carry_no_structures(self, dataset, chains):
        for carrier in (AnalysisPartial, EnrichedChains):
            assert [f.name for f in dataclasses.fields(carrier)
                    if "structure" in f.name] == []
        for jobs in (None, 1):
            result = dataset.analyzer().analyze_chains(chains, jobs=jobs)
            assert result._structure_cache == {}

    def test_structure_of_computes_on_first_use(self, dataset, chains):
        result = dataset.analyzer().analyze_chains(chains, jobs=1)
        multi = [c for c in chains.values() if c.length > 1]
        assert multi  # non-trivial corpus
        for expected in ("miss", "hit"):
            hits = instruments.STRUCTURE_CACHE_HIT.value
            misses = instruments.STRUCTURE_CACHE_MISS.value
            for chain in multi:
                for require_leaf in (True, False):
                    result.structure_of(chain, require_leaf=require_leaf)
            looked_up = {"hit": instruments.STRUCTURE_CACHE_HIT.value - hits,
                         "miss": instruments.STRUCTURE_CACHE_MISS.value
                         - misses}
            assert looked_up[expected] == 2 * len(multi)
            assert sum(looked_up.values()) == 2 * len(multi)

    @pytest.mark.parametrize("jobs", [None, 1, 2])
    def test_structure_of_matches_fresh_analysis(self, dataset, chains,
                                                 jobs, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        result = dataset.analyzer().analyze_chains(chains, jobs=jobs)
        disclosures = dataset.disclosures
        for chain in chains.values():
            if chain.length <= 1:
                continue
            for require_leaf in (True, False):
                cached = result.structure_of(chain,
                                             require_leaf=require_leaf)
                fresh = analyze_structure(chain.certificates,
                                          disclosures=disclosures,
                                          require_leaf=require_leaf)
                assert cached == fresh

    def test_hybrid_analyses_reference_driver_chains(self, dataset, chains):
        """Worker output crossed a pickle boundary; the driver must rebind
        analyses to the chain map's own objects."""
        result = dataset.analyzer().analyze_chains(chains, jobs=2)
        for analysis in result.hybrid.analyses:
            assert analysis.chain is chains[analysis.chain.key]
            assert analysis.structure.certificates \
                is analysis.chain.certificates


#: Unpicklings of :class:`_EagerPartial` payloads (must stay empty).
_UNPICKLED = []


def _unpickled_eager_partial():
    _UNPICKLED.append(True)
    return None


class _EagerPartial:
    """Stands in for a partial the eager-structure layout journaled."""

    def __reduce__(self):
        return _unpickled_eager_partial, ()


class TestJournalOfEagerPartials:
    def test_resume_recomputes_and_never_unpickles(self, dataset, chains,
                                                   tmp_path):
        """A journal the eager layout wrote holds partials of another
        shape under the previous fingerprint: a resume recomputes every
        partition and loads none of them."""
        directory = str(tmp_path / "journal")
        with RunJournal(directory) as journal:
            for index in range(DEFAULT_PARTITIONS):
                keys = tuple(key for key in chains
                             if partition_index(key, DEFAULT_PARTITIONS)
                             == index)
                journal.record("analysis", f"analysis:{index:04d}",
                               input_fingerprint([
                                   "analysis-partition-v2", index, keys,
                                   ()]),
                               _EagerPartial())
        fresh = analyze_partitions(chains, registry=dataset.registry,
                                   disclosures=dataset.disclosures, jobs=1)
        runs = []
        for _ in range(2):
            with RunJournal(directory) as journal:
                runs.append(analyze_partitions(
                    chains, registry=dataset.registry,
                    disclosures=dataset.disclosures, jobs=1,
                    supervise=SupervisorConfig(journal=journal,
                                               resume=True)))
        assert _UNPICKLED == []
        assert runs[0].supervisor.journal_replayed == 0
        # What the first resume journaled, the second replays.
        assert runs[1].supervisor.journal_replayed == DEFAULT_PARTITIONS
        for enriched in runs:
            assert enriched.categories == fresh.categories
            assert enriched.hybrid_by_key == fresh.hybrid_by_key
            assert enriched.classes == fresh.classes


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
        task = AnalysisTask(index=0, keys=tuple(chains),
                            interception_keys=frozenset())
        context = PartitionContext(
            certificates={certificate.fingerprint: certificate
                          for chain in chains.values()
                          for certificate in chain.certificates},
            registry=dataset.registry, disclosures=dataset.disclosures)
        with sharing(context):
            partial = process_partition(task)
        assert partial.hybrid and partial.classes
        loaded = _load_without_certificates(pickle.dumps(partial))
        assert loaded.categories == partial.categories
        assert loaded.hybrid == partial.hybrid


class _NoSupervisedRun(pickle.Unpickler):
    """Loads a pickle unless it holds a supervised dispatch."""

    def find_class(self, module, name):
        if module == "repro.parallel.supervisor":
            raise pickle.UnpicklingError(f"{module}.{name} in a checkpoint")
        return super().find_class(module, name)


class TestEnrichmentCheckpoint:
    """The ``enrichment`` checkpoint keeps the merged maps only: the
    dispatch's results would store every partial a second time."""

    def test_checkpoint_holds_no_dispatch_and_resumes(self, dataset,
                                                       chains, tmp_path):
        store = CheckpointStore(str(tmp_path))
        fresh = dataset.analyzer().analyze_chains(chains, jobs=1,
                                                  checkpoint=store)
        assert len(fresh.supervisor.results) == DEFAULT_PARTITIONS
        with open(tmp_path / "stage-enrichment.ckpt", "rb") as handle:
            envelope = _NoSupervisedRun(io.BytesIO(handle.read())).load()
        saved = envelope["payload"]
        assert isinstance(saved, EnrichedChains) and saved.supervisor is None
        assert saved.categories and saved.hybrid_by_key

        resumed = dataset.analyzer().analyze_chains(
            chains, jobs=1, checkpoint=store, resume=True)
        assert resumed.supervisor is None
        assert render(resumed) == render(fresh)


def _record_submitted_tasks(monkeypatch, module, submitted):
    """Pickle every task ``module`` hands to ``run_supervised``."""
    original = module.run_supervised

    def recording(kind, tasks, fn, **kwargs):
        tasks = list(tasks)
        submitted.extend(pickle.dumps(task) for task in tasks)
        return original(kind, tasks, fn, **kwargs)

    monkeypatch.setattr(module, "run_supervised", recording)


class TestTasksCarryNoCertificates:
    """Certificates cross into the workers once, as the dispatch's shared
    state — never inside a task."""

    def test_analysis_tasks_carry_keys_only(self, dataset, chains,
                                            monkeypatch):
        submitted = []
        _record_submitted_tasks(monkeypatch, analysis, submitted)
        analyze_partitions(chains, registry=dataset.registry,
                           disclosures=dataset.disclosures, jobs=2)
        assert len(submitted) == DEFAULT_PARTITIONS
        keys = set()
        for data in submitted:
            task = _load_without_certificates(data)
            keys.update(task.keys)
        assert keys == set(chains)

    def test_shard_tasks_carry_no_certificates(self, dataset, tmp_path,
                                               monkeypatch):
        ssl_path, x509_path = dataset.write_zeek_logs(str(tmp_path))
        submitted = []
        _record_submitted_tasks(monkeypatch, engine, submitted)
        ingest = ingest_logs(ssl_path, x509_path, jobs=1)
        assert ingest.chains
        assert len(submitted) == 2  # the x509 log, then its one shard
        for data in submitted:
            _load_without_certificates(data)


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
