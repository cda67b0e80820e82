"""Parallel ingestion == serial ingestion, byte for byte.

The engine's central guarantee: for the same shard set, the merged chain
map — including dict insertion order, every Counter's key order, and all
usage accumulators — is identical whether read by one process or many,
and identical to the original serial read/join/aggregate path.  These
tests pin that guarantee at every layer: raw chain maps, AnalysisResult
tables, quarantine contents under corruption, exported metric values,
and checkpoint fingerprints.
"""

from __future__ import annotations

import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.categorization import ChainCategory
from repro.core.chain import aggregate_chains
from repro.core.pipeline import ChainStructureAnalyzer
from repro.faults import FaultPlan
from repro.obs.metrics import get_registry
from repro.parallel import discover_shards, engine, ingest_logs, \
    ingest_shards, split_zeek_log
from repro.parallel.supervisor import SupervisorConfig
from repro.resilience import Quarantine
from repro.resilience.journal import RunJournal
from repro.zeek.format import read_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import join_logs

JOBS_MATRIX = [1, 2, 4]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One dataset, written as a single pair AND as four broadcast shards."""
    base = tmp_path_factory.mktemp("parallel-corpus")
    dataset = cached_campus_dataset(seed="par-eq", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    split_zeek_log(ssl_path, str(shard_dir), 4)
    # Certificates are de-duplicated corpus-wide, so the x509 log is
    # broadcast whole to every shard rather than split.
    shutil.copy(x509_path, shard_dir / "x509.log")
    return {
        "ssl": ssl_path,
        "x509": x509_path,
        "shards": discover_shards(str(shard_dir)),
    }


def serial_chains(ssl_path: str, x509_path: str):
    """The pre-engine reference path: legacy reader, list join, one pass."""
    _, ssl_rows = read_zeek_log(ssl_path, compiled=False)
    _, x509_rows = read_zeek_log(x509_path, compiled=False)
    joined = join_logs([SSLRecord.from_row(r) for r in ssl_rows],
                       [X509Record.from_row(r) for r in x509_rows])
    return aggregate_chains(joined)


def canon(chains):
    """Full observable state of a chain map, order included."""
    return [(key, tuple(c.fingerprint for c in chain.certificates),
             chain.usage.connections, chain.usage.established,
             sorted(chain.usage.client_ips), list(chain.usage.ports.items()),
             chain.usage.sni_present, sorted(chain.usage.snis),
             chain.usage.first_seen, chain.usage.last_seen,
             sorted(chain.usage.server_ips))
            for key, chain in chains.items()]


class TestEngineMatchesSerial:
    def test_unsharded_ingest_equals_legacy_serial_path(self, corpus):
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        ingest = ingest_logs(corpus["ssl"], corpus["x509"], jobs=1)
        assert canon(ingest.chains) == canon(reference)
        assert ingest.missing_certs == 0

    def test_sharded_ingest_equals_legacy_serial_path(self, corpus):
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        ingest = ingest_shards(corpus["shards"], jobs=2)
        assert canon(ingest.chains) == canon(reference)


class TestJobsInvariance:
    def test_chain_maps_identical_across_worker_counts(self, corpus):
        results = [ingest_shards(corpus["shards"], jobs=jobs)
                   for jobs in JOBS_MATRIX]
        baseline = canon(results[0].chains)
        assert baseline  # non-trivial corpus
        for result in results[1:]:
            assert canon(result.chains) == baseline

    def test_tallies_and_fingerprints_identical(self, corpus):
        results = [ingest_shards(corpus["shards"], jobs=jobs)
                   for jobs in JOBS_MATRIX]
        baseline = results[0]
        assert baseline.ssl_rows > 0
        assert baseline.cert_fingerprints  # dedup'd, first-seen order
        for result in results[1:]:
            assert result.cert_fingerprints == baseline.cert_fingerprints
            assert (result.ssl_rows, result.x509_rows, result.joined,
                    result.missing_certs, result.aggregated,
                    result.skipped_empty) == \
                (baseline.ssl_rows, baseline.x509_rows, baseline.joined,
                 baseline.missing_certs, baseline.aggregated,
                 baseline.skipped_empty)

    def test_analysis_tables_identical_across_worker_counts(
            self, corpus, registry):
        tables = []
        for jobs in JOBS_MATRIX:
            ingest = ingest_shards(corpus["shards"], jobs=jobs)
            result = ChainStructureAnalyzer(registry).analyze_ingest(ingest)
            path_stats = result.multicert_path_stats(
                ChainCategory.NON_PUBLIC_ONLY)
            tables.append((result.categorized.summary_rows(), path_stats))
        assert tables[0][0]  # Table 2 rows exist
        for rows, stats in tables[1:]:
            assert rows == tables[0][0]
            assert stats == tables[0][1]

    def test_checkpoint_fingerprint_identical_across_worker_counts(
            self, corpus, registry):
        analyzer = ChainStructureAnalyzer(registry)
        fingerprints = {
            analyzer._fingerprint(
                ingest_shards(corpus["shards"], jobs=jobs).chains)
            for jobs in JOBS_MATRIX}
        assert len(fingerprints) == 1

    def test_metric_values_identical_across_worker_counts(self, corpus):
        # Everything except wall-clock timing and the worker gauge must be
        # invariant under --jobs: workers stay silent and the driver emits
        # canonical values from the merged result.
        snapshots = []
        for jobs in JOBS_MATRIX:
            get_registry().reset()
            ingest_shards(corpus["shards"], jobs=jobs)
            snapshot = get_registry().snapshot()
            snapshots.append({
                family: [(s["labels"], s["value"]) for s in data["samples"]]
                for family, data in snapshot.items()
                if data["kind"] == "counter"
            })
        assert snapshots[0]["repro_zeek_rows_total"]
        for snapshot in snapshots[1:]:
            assert snapshot == snapshots[0]


class TestCorruptionEquivalence:
    """5% corruption over the SAME shard set: identical quarantine and
    chains no matter how many workers read it (draws are keyed by the
    plan seed and each shard file's line numbers, never by worker)."""

    PLAN = FaultPlan(seed="par-chaos", zeek_corrupt_rate=0.05)

    def _run(self, corpus, jobs):
        quarantine = Quarantine()
        ingest = ingest_shards(corpus["shards"], jobs=jobs, plan=self.PLAN,
                               quarantine=quarantine)
        return ingest, quarantine

    def test_quarantine_identical_across_worker_counts(self, corpus):
        runs = [self._run(corpus, jobs) for jobs in JOBS_MATRIX]
        _, base_q = runs[0]
        assert base_q.records  # the plan actually corrupted rows
        for _, quarantine in runs[1:]:
            assert quarantine.records == base_q.records

    def test_degraded_chains_identical_across_worker_counts(self, corpus):
        runs = [self._run(corpus, jobs) for jobs in JOBS_MATRIX]
        base_ingest, _ = runs[0]
        for ingest, _ in runs[1:]:
            assert canon(ingest.chains) == canon(base_ingest.chains)

    def test_corruption_actually_changed_the_input(self, corpus):
        clean = ingest_shards(corpus["shards"], jobs=2)
        degraded, _ = self._run(corpus, 2)
        assert degraded.ssl_rows + degraded.x509_rows < \
            clean.ssl_rows + clean.x509_rows


class TestBroadcastX509DecodedOnce:
    """Four shards joining one broadcast x509.log ship identical X509
    sections, so the driver rebuilds each certificate once per ingest,
    not once per shard — also under corruption, whose draws are keyed
    by line number and so hit every shard's x509.log read alike."""

    @pytest.mark.parametrize("plan", [None, TestCorruptionEquivalence.PLAN],
                             ids=["clean", "par-chaos"])
    def test_reconstruct_once_per_distinct_certificate(self, corpus,
                                                       monkeypatch, plan):
        reconstructed = []
        original = engine.reconstruct_certificate

        def counting(record):
            reconstructed.append(record.fingerprint)
            return original(record)

        monkeypatch.setattr(engine, "reconstruct_certificate", counting)
        ingest = ingest_shards(
            corpus["shards"], jobs=2, plan=plan,
            quarantine=Quarantine() if plan is not None else None)
        assert len(corpus["shards"]) == 4
        assert ingest.x509_rows >= 4 * len(ingest.cert_fingerprints)
        assert reconstructed
        assert sorted(reconstructed) == sorted(set(reconstructed))
        assert set(reconstructed) == set(ingest.cert_fingerprints)


class TestColumnarToggleEquivalence:
    """The columnar hot path (default) against its own escape hatch:
    flipping ``columnar=False`` must change nothing observable."""

    def test_chain_maps_identical_with_and_without_columnar(self, corpus):
        for jobs in JOBS_MATRIX:
            columnar = ingest_shards(corpus["shards"], jobs=jobs)
            rowwise = ingest_shards(corpus["shards"], jobs=jobs,
                                    columnar=False)
            assert canon(columnar.chains) == canon(rowwise.chains)
            assert columnar.cert_fingerprints == rowwise.cert_fingerprints
            assert (columnar.ssl_rows, columnar.joined,
                    columnar.missing_certs, columnar.aggregated,
                    columnar.skipped_empty) == \
                (rowwise.ssl_rows, rowwise.joined, rowwise.missing_certs,
                 rowwise.aggregated, rowwise.skipped_empty)

    def test_quarantine_parity_under_corruption(self, corpus):
        plan = FaultPlan(seed="col-chaos", zeek_corrupt_rate=0.05)
        records = []
        for columnar in (True, False):
            quarantine = Quarantine()
            ingest_shards(corpus["shards"], jobs=2, plan=plan,
                          quarantine=quarantine, columnar=columnar)
            records.append(quarantine.records)
        assert records[0]  # the plan actually corrupted rows
        assert records[0] == records[1]

    def test_worker_crashes_with_journal_and_resume(self, corpus,
                                                    tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        chaos = FaultPlan(seed="col-crash", worker_crash_rate=0.5)
        with RunJournal(str(tmp_path / "journal")) as journal:
            crashed = ingest_shards(
                corpus["shards"], jobs=2,
                supervise=SupervisorConfig(plan=chaos, max_task_retries=3,
                                           journal=journal))
        assert any(i.incident == "worker_crash"
                   for i in crashed.supervisor.incidents)
        assert canon(crashed.chains) == canon(reference)
        # A resumed run replays the journaled columnar partials and
        # still reduces to the identical chain map.
        with RunJournal(str(tmp_path / "journal")) as journal:
            resumed = ingest_shards(
                corpus["shards"], jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        assert resumed.supervisor.journal_replayed >= 1
        assert canon(resumed.chains) == canon(reference)
