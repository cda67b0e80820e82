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

import os
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.categorization import ChainCategory
from repro.core.chain import aggregate_chains
from repro.core.pipeline import ChainStructureAnalyzer
from repro.faults import FaultInjector, FaultPlan
from repro.obs.metrics import get_registry
from repro.parallel import discover_shards, engine, ingest_logs, \
    ingest_shards, split_zeek_log, worker
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
             sorted(chain.usage.client_names()),
             list(chain.usage.port_items()),
             chain.usage.sni_present, sorted(chain.usage.sni_names()),
             chain.usage.first_seen, chain.usage.last_seen,
             sorted(chain.usage.server_names()))
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
    """Four shards joining one broadcast x509.log: the log is read once,
    its X509 section decoded once, and each certificate rebuilt once per
    ingest — also under corruption, whose draws are keyed by line
    number."""

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
        # x509_rows counts the one distinct log once, not once per shard.
        _, rows = read_zeek_log(
            corpus["shards"][0].x509_path, quarantine=Quarantine(),
            faults=FaultInjector(plan) if plan is not None else None)
        assert ingest.x509_rows == len(rows)
        assert len(ingest.cert_fingerprints) <= ingest.x509_rows
        assert reconstructed
        assert sorted(reconstructed) == sorted(set(reconstructed))
        assert set(reconstructed) == set(ingest.cert_fingerprints)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_x509_log_read_once_per_ingest(self, corpus, monkeypatch,
                                           tmp_path, jobs):
        """One columnar read of the broadcast log per ingest, however
        many shards join it (forked workers log their reads to a file)."""
        calls = tmp_path / "reads"
        original = worker.read_zeek_log_columnar

        def logging_read(path, **kwargs):
            with open(calls, "a", encoding="utf-8") as handle:
                handle.write(os.path.basename(path) + "\n")
            return original(path, **kwargs)

        monkeypatch.setattr(worker, "read_zeek_log_columnar", logging_read)
        monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
        ingest_shards(corpus["shards"], jobs=jobs)
        reads = calls.read_text().splitlines()
        assert reads.count("x509.log") == 1
        assert len(reads) == 1 + len(corpus["shards"])


class TestQuarantineOncePerRecord:
    """Under corruption every quarantined line appears once: the x509
    records are exactly one row-reader pass over ``x509.log``."""

    def test_every_source_line_quarantined_once(self, corpus):
        quarantine = Quarantine()
        ingest_shards(corpus["shards"], jobs=2,
                      plan=TestCorruptionEquivalence.PLAN,
                      quarantine=quarantine)
        pairs = [(record.source, record.line)
                 for record in quarantine.records]
        assert pairs
        assert len(pairs) == len(set(pairs))

        x509_path = corpus["shards"][0].x509_path
        reference = Quarantine()
        read_zeek_log(x509_path, quarantine=reference,
                      faults=FaultInjector(TestCorruptionEquivalence.PLAN))
        assert reference.records
        assert [record for record in quarantine.records
                if record.source == x509_path] == reference.records


@pytest.fixture(scope="module")
def paired(corpus, tmp_path_factory):
    """The same four SSL shards, each beside its own copy of the x509
    log (``ssl.log.NNN`` ↔ ``x509.log.NNN``): four distinct x509 logs."""
    directory = tmp_path_factory.mktemp("paired-x509")
    for spec in corpus["shards"]:
        name = os.path.basename(spec.ssl_path)
        shutil.copy(spec.ssl_path, directory / name)
        shutil.copy(corpus["x509"], directory / ("x509" + name[len("ssl"):]))
    shards = discover_shards(str(directory))
    assert len({spec.x509_path for spec in shards}) == 4
    return shards


class TestOneX509LogPerShard:
    def test_each_log_read_once_and_chains_unchanged(self, corpus, paired,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        _, x509_rows = read_zeek_log(corpus["x509"])
        for jobs in JOBS_MATRIX:
            ingest = ingest_shards(paired, jobs=jobs)
            assert canon(ingest.chains) == canon(reference)
            assert ingest.x509_rows == 4 * len(x509_rows)
            assert ingest.missing_certs == 0
            assert len(ingest.supervisor.results) == 4 + 4

    def test_dropped_x509_task_drops_its_shards_visibly(self, paired,
                                                        monkeypatch):
        """Poison x509 tasks with the serial fallback off: every shard
        joining a dropped log is dropped as an incident and a quarantine
        record, never joined against an empty fingerprint set."""
        monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
        quarantine = Quarantine()
        ingest = ingest_shards(
            paired, jobs=2, quarantine=quarantine,
            supervise=SupervisorConfig(
                plan=FaultPlan(seed="drop-x509", worker_crash_rate=1.0),
                max_task_retries=0, serial_fallback=False))
        run = ingest.supervisor
        assert run.results == [None] * 8
        assert not ingest.chains and ingest.joined == 0
        assert ingest.missing_certs == 0
        dropped = [incident.task_id for incident in run.incidents
                   if incident.incident == "x509_dropped"]
        assert dropped == [f"ingest:{i:04d}" for i in range(4)]
        assert [record.raw for record in quarantine.records
                if record.reason == "x509_dropped"] == dropped
        assert sum(record.reason == "poison_task"
                   for record in quarantine.records) == 4
        # The poison tasks are the x509 ones; the footer counts the drops.
        assert run.quarantined == [f"ingest:x509:{i:04d}" for i in range(4)]
        assert any("x509_dropped ×4" in line for line in run.summary_lines())


def row_reader_quarantine(shards, plan):
    """Quarantine of the row readers over each distinct file once, in
    the engine's order: an X509 log before the first shard joining it."""
    quarantine = Quarantine()
    injector = FaultInjector(plan)
    seen = set()
    for spec in shards:
        for path in (spec.x509_path, spec.ssl_path):
            if path not in seen:
                seen.add(path)
                read_zeek_log(path, quarantine=quarantine, faults=injector)
    return quarantine.records


class TestColumnarToggleEquivalence:
    """The columnar engine against the row readers it replaced: the
    serial reference path must observe exactly the same chains, tallies
    and quarantine."""

    def test_chain_maps_identical_with_and_without_columnar(self, corpus):
        reference = serial_chains(corpus["ssl"], corpus["x509"])
        _, ssl_rows = read_zeek_log(corpus["ssl"], compiled=False)
        for jobs in JOBS_MATRIX:
            columnar = ingest_shards(corpus["shards"], jobs=jobs)
            assert canon(columnar.chains) == canon(reference)
            assert columnar.ssl_rows == len(ssl_rows)
            assert columnar.joined == len(ssl_rows)
            assert columnar.missing_certs == 0
            assert columnar.aggregated == sum(
                chain.usage.connections for chain in reference.values())
            assert columnar.skipped_empty == \
                columnar.joined - columnar.aggregated

    def test_quarantine_parity_under_corruption(self, corpus):
        plan = FaultPlan(seed="col-chaos", zeek_corrupt_rate=0.05)
        quarantine = Quarantine()
        ingest_shards(corpus["shards"], jobs=2, plan=plan,
                      quarantine=quarantine)
        expected = row_reader_quarantine(corpus["shards"], plan)
        assert expected  # the plan actually corrupted rows
        assert quarantine.records == expected

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
