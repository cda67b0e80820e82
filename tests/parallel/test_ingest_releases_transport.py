"""An ingest keeps no transport bytes once it has folded them.

Each shard partial carries its chains as a packed ``payload`` and each
X509 partial its certificates as a packed ``section``.  The driver folds
both into the merged result, and a journaled run has persisted them
before that, so ``IngestResult.supervisor.results`` keeps neither:
only the tallies, quarantine records and telemetry.  Releasing them
must change nothing the ingest reports, at ``jobs`` 1 and 2 and when
every partial is replayed from the journal.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.obs.exporters import render_prometheus
from repro.obs.metrics import get_registry
from repro.parallel import (SupervisorConfig, discover_shards,
                            generate_dataset, ingest_shards)
from repro.parallel.worker import ShardPartial, X509Partial
from repro.resilience import Quarantine, RunJournal

PLAN = FaultPlan(seed="release", zeek_corrupt_rate=0.01)
#: What a journaled run adds: the store's writes and hits, and its
#: tasks counted as replayed rather than completed.
STORE_FAMILIES = ("repro_analysis_artifacts_total",
                  "repro_supervisor_journal_total",
                  "repro_supervisor_tasks_total")


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    out = tmp_path_factory.mktemp("release")
    generate_dataset(str(out), seed="release", scale="small", jobs=1)
    return discover_shards(str(out))


def _ingest(shards, *, jobs, supervise=None):
    get_registry().reset()
    quarantine = Quarantine()
    result = ingest_shards(shards, jobs=jobs, plan=PLAN,
                           quarantine=quarantine, supervise=supervise)
    # Everything but durations and the worker-count gauge.
    export = [line for line in render_prometheus().splitlines()
              if line and line[0] != "#" and "_seconds" not in line
              and not line.startswith("repro_parallel_workers")]
    return result, quarantine, export


def _without(export, families):
    return [line for line in export if not line.startswith(families)]


def _chains(result):
    return [(key, tuple(cert.fingerprint for cert in chain.certificates),
             chain.usage, list(chain.usage.port_items()))
            for key, chain in result.chains.items()]


def _assert_released(result, shard_count):
    partials = result.supervisor.results
    assert len(partials) == 1 + shard_count
    x509, *shard_partials = partials
    assert isinstance(x509, X509Partial)
    assert x509.section == b""
    assert x509.rows and x509.telemetry is not None
    for partial in shard_partials:
        assert isinstance(partial, ShardPartial)
        assert partial.payload == b""
        assert partial.ssl_rows and partial.telemetry is not None
    # The quarantine records stay on the partials they came from.
    assert sum(len(partial.quarantined) for partial in partials) > 0


def test_results_hold_no_transport_bytes(shards, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
    runs = {jobs: _ingest(shards, jobs=jobs) for jobs in (1, 2)}
    journal_dir = str(tmp_path / "journal")
    with RunJournal(journal_dir) as journal:
        runs["cold"] = _ingest(shards, jobs=2, supervise=SupervisorConfig(
            journal=journal))
    with RunJournal(journal_dir) as journal:
        runs["replay"] = _ingest(shards, jobs=2, supervise=SupervisorConfig(
            journal=journal, resume=True))
    assert runs["replay"][0].supervisor.journal_replayed == 1 + len(shards)

    reference, reference_quarantine, reference_export = runs[1]
    assert reference.chains and reference_quarantine.records
    for name, (result, quarantine, export) in runs.items():
        _assert_released(result, len(shards))
        assert _chains(result) == _chains(reference), name
        assert result.cert_fingerprints == reference.cert_fingerprints
        assert quarantine.records == reference_quarantine.records, name
        assert _without(export, STORE_FAMILIES) == \
            _without(reference_export, STORE_FAMILIES), name
    assert runs[2][2] == reference_export
    tasks = 1 + len(shards)
    assert f'repro_supervisor_journal_total{{result="appended"}} {tasks}' \
        in runs["cold"][2]
    assert f'repro_supervisor_journal_total{{result="replayed"}} {tasks}' \
        in runs["replay"][2]
