"""Chaos acceptance: every engine survives worker crashes and hangs.

The supervised dispatch layer's end-to-end contract, pinned per engine:
under a fault plan that crashes workers mid-task and hangs others, each
fan-out path (shard ingest, partition analysis, dataset generation,
batch scanning) produces output *byte-identical* to a fault-free serial
run — recovery changes wall-clock and incident counters, never a single
merged byte.  And a driver killed mid-ingest resumes from its run
journal, replaying completed shards instead of recomputing them.

Fault-plan seeds are chosen so the injector's deterministic draws
actually exercise the paths under test (≥2 first-attempt crashes for
the crash plans; a first-attempt hang for the watchdog plan).  Incident
*counts* beyond those floors are timing-dependent — when a crash breaks
the pool, an innocent task that had already started is charged too —
so the assertions here are floors plus byte identity, never exact
incident tallies.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset, resolve_scale
from repro.core.categorization import ChainCategory
from repro.core.pipeline import ChainStructureAnalyzer
from repro.faults import FaultPlan
from repro.obs import instruments
from repro.parallel import (discover_shards, generate_dataset, ingest_shards,
                            split_zeek_log)
from repro.parallel.pool import NO_CPU_CLAMP_VAR
from repro.parallel.supervisor import HANG_SECONDS_VAR, SupervisorConfig
from repro.resilience.journal import JOURNAL_NAME, RunJournal
from repro.scan import ActiveScanner, ScanTarget
from repro.tls import TLSServer
from repro.x509 import CertificateFactory

#: Crashes ingest shards 0 and 3 on their first pool attempt and hangs
#: shard 1 — the ISSUE's "crash ≥2 workers, hang 1" composition — with
#: every task clearing inside a 2-retry budget.
INGEST_CHAOS = FaultPlan(seed="chaos-27", worker_crash_rate=0.5,
                         worker_hang_rate=0.25)

#: Hangs ingest shard 2 on its first attempt, nothing else: with no
#: crash rate the pool can never break, so recovery *must* come from
#: the heartbeat watchdog.
INGEST_HANG_ONLY = FaultPlan(seed="hang-12", worker_hang_rate=0.5)

#: First-attempt crashes on ≥2 tasks of the respective engine's id
#: space, clearing on the next draw.
ANALYSIS_CHAOS = FaultPlan(seed="an-19", worker_crash_rate=0.3)
GENERATE_CHAOS = FaultPlan(seed="gen-4", worker_crash_rate=0.2)
SCAN_CHAOS = FaultPlan(seed="scan-66", worker_crash_rate=0.5)

#: Generous per-task deadline: shard work takes ~a second, an injected
#: hang sleeps 60 (capped below), so 5s separates the two cleanly.
TASK_TIMEOUT = 5.0


@pytest.fixture(autouse=True)
def _chaos_env(monkeypatch):
    """Multi-worker pools on a 1-CPU box; injected hangs stay finite."""
    monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
    monkeypatch.setenv(HANG_SECONDS_VAR, "60")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("chaos-corpus")
    dataset = cached_campus_dataset(seed="par-eq", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    split_zeek_log(ssl_path, str(shard_dir), 4)
    shutil.copy(x509_path, shard_dir / "x509.log")
    return discover_shards(str(shard_dir))


def canon(chains):
    """Full observable state of a chain map, order included."""
    return [(key, tuple(c.fingerprint for c in chain.certificates),
             chain.usage.connections, chain.usage.established,
             sorted(chain.usage.client_ips), list(chain.usage.ports.items()),
             chain.usage.sni_present, sorted(chain.usage.snis),
             chain.usage.first_seen, chain.usage.last_seen,
             sorted(chain.usage.server_ips))
            for key, chain in chains.items()]


def tallies(ingest):
    return (ingest.ssl_rows, ingest.x509_rows, ingest.joined,
            ingest.missing_certs, ingest.aggregated, ingest.skipped_empty,
            ingest.cert_fingerprints)


@pytest.fixture(scope="module")
def reference(corpus):
    """The fault-free serial ingest every chaos run must reproduce."""
    ingest = ingest_shards(corpus, jobs=1)
    assert ingest.chains  # non-trivial corpus
    return {"canon": canon(ingest.chains), "tallies": tallies(ingest),
            "ingest": ingest}


def established(ingest):
    return sum(chain.usage.established for chain in ingest.chains.values())


def flip_established(path) -> int:
    """Rewrite every ``established`` T as F in place; returns the flips."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    column = None
    flips = 0
    for i, line in enumerate(lines):
        if line.startswith(b"#fields"):
            column = line.split(b"\t")[1:].index(b"established")
        elif line and not line.startswith(b"#"):
            cells = line.split(b"\t")
            if cells[column] == b"T":
                cells[column] = b"F"
                lines[i] = b"\t".join(cells)
                flips += 1
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines))
    return flips


def incident_count(kind, incident):
    return instruments.SUPERVISOR_INCIDENTS.value(kind=kind,
                                                  incident=incident)


class TestIngestChaos:
    def test_crash_and_hang_plan_is_byte_identical(self, corpus, reference):
        config = SupervisorConfig(plan=INGEST_CHAOS, max_task_retries=2,
                                  task_timeout=TASK_TIMEOUT)
        ingest = ingest_shards(corpus, jobs=4, supervise=config)
        run = ingest.supervisor
        crashes = [i for i in run.incidents if i.incident == "worker_crash"]
        assert len(crashes) >= 2  # the plan crashed at least two workers
        assert run.pool_rebuilds >= 1
        assert run.degraded and run.summary_lines()
        assert all(result is not None for result in run.results)
        assert canon(ingest.chains) == reference["canon"]
        assert tallies(ingest) == reference["tallies"]

    def test_hang_only_plan_recovered_by_watchdog(self, corpus, reference):
        config = SupervisorConfig(plan=INGEST_HANG_ONLY, max_task_retries=2,
                                  task_timeout=TASK_TIMEOUT)
        ingest = ingest_shards(corpus, jobs=2, supervise=config)
        run = ingest.supervisor
        hangs = [i for i in run.incidents if i.incident == "worker_hang"]
        # No crash rate → the pool never breaks → only the heartbeat
        # watchdog can have unstuck this run.
        assert len(hangs) >= 1
        assert run.pool_rebuilds >= 1
        assert canon(ingest.chains) == reference["canon"]
        assert tallies(ingest) == reference["tallies"]

    def test_incident_report_is_json_ready(self, corpus):
        config = SupervisorConfig(plan=INGEST_CHAOS, max_task_retries=2,
                                  task_timeout=TASK_TIMEOUT)
        ingest = ingest_shards(corpus, jobs=4, supervise=config)
        import json
        report = ingest.supervisor.report()
        assert report["kind"] == "ingest"
        assert report["incidents"]  # the chaos actually happened
        json.dumps(report)  # must serialize as-is for --run-report


class TestAnalysisChaos:
    def test_tables_identical_under_crash_plan(self, corpus, reference,
                                               registry):
        serial = ChainStructureAnalyzer(registry).analyze_ingest(
            reference["ingest"])
        serial_stats = serial.multicert_path_stats(
            ChainCategory.NON_PUBLIC_ONLY)
        config = SupervisorConfig(plan=ANALYSIS_CHAOS, max_task_retries=2)
        before = incident_count("analysis", "worker_crash")
        chaotic = ChainStructureAnalyzer(registry).analyze_ingest(
            reference["ingest"], jobs=4, supervise=config)
        assert incident_count("analysis", "worker_crash") - before >= 2
        assert chaotic.categorized.summary_rows() == \
            serial.categorized.summary_rows()
        assert chaotic.multicert_path_stats(ChainCategory.NON_PUBLIC_ONLY) \
            == serial_stats
        assert len(chaotic.chains) == len(serial.chains)


class TestGenerateChaos:
    def test_files_byte_identical_under_crash_plan(self, tmp_path_factory):
        import os
        scale = resolve_scale("small")
        clean_dir = str(tmp_path_factory.mktemp("gen-clean"))
        generate_dataset(clean_dir, seed="sup-gen", scale=scale, jobs=1)
        chaos_dir = str(tmp_path_factory.mktemp("gen-chaos"))
        config = SupervisorConfig(plan=GENERATE_CHAOS, max_task_retries=2)
        result = generate_dataset(chaos_dir, seed="sup-gen", scale=scale,
                                  jobs=4, supervise=config)
        run = result.supervisor
        crashes = [i for i in run.incidents if i.incident == "worker_crash"]
        assert len(crashes) >= 2
        names = sorted(os.listdir(clean_dir))
        assert sorted(os.listdir(chaos_dir)) == names
        for name in names:
            with open(os.path.join(clean_dir, name), "rb") as a, \
                    open(os.path.join(chaos_dir, name), "rb") as b:
                assert a.read() == b.read(), name


class TestScanChaos:
    @pytest.fixture(scope="class")
    def targets(self):
        factory = CertificateFactory(seed=41)
        built = []
        for i in range(12):
            if i % 5 == 3:  # known-dead servers interleaved with live ones
                built.append(ScanTarget(server_id=f"srv-{i:02d}",
                                        hostname=f"host{i}.example"))
                continue
            chain = tuple(factory.simple_chain(
                root_cn=f"R{i}", intermediate_cns=[f"I{i}"],
                leaf_cn=f"host{i}.example"))
            built.append(ScanTarget(
                server_id=f"srv-{i:02d}",
                server=TLSServer("203.0.113.10", 443, chain,
                                 hostnames=(f"host{i}.example",)),
                hostname=f"host{i}.example"))
        return built

    def test_results_identical_under_crash_plan(self, targets):
        serial = ActiveScanner(seed="sup-scan").scan_many(targets, jobs=1)
        assert any(not r.reachable for r in serial)
        config = SupervisorConfig(plan=SCAN_CHAOS, max_task_retries=2)
        before = incident_count("scan", "worker_crash")
        chaotic = ActiveScanner(seed="sup-scan").scan_many(
            targets, jobs=4, supervise=config)
        assert incident_count("scan", "worker_crash") - before >= 2
        assert chaotic == serial


class TestJournalResume:
    def test_driver_kill_mid_ingest_resumes_completed_shards(
            self, corpus, reference, tmp_path):
        journal_dir = tmp_path / "journal"
        with RunJournal(str(journal_dir)) as journal:
            first = ingest_shards(corpus, jobs=2,
                                  supervise=SupervisorConfig(journal=journal))
        assert first.supervisor.journal_replayed == 0
        assert canon(first.chains) == reference["canon"]

        # Simulate a driver killed after two shards: the x509 task's
        # line (always first: it runs before the shards) and two shard
        # lines survive intact, the next is torn mid-append.
        journal_path = journal_dir / JOURNAL_NAME
        lines = journal_path.read_text().splitlines()
        # one fsync'd line per completed task: the x509 log, four shards
        assert len(lines) == 5
        assert '"ingest:x509:0000"' in lines[0]
        journal_path.write_text("\n".join(lines[:3]) + "\n"
                                + lines[3][: len(lines[3]) // 2])

        with RunJournal(str(journal_dir)) as journal:
            resumed = ingest_shards(
                corpus, jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        assert resumed.supervisor.journal_replayed == 3
        assert canon(resumed.chains) == reference["canon"]
        assert tallies(resumed) == reference["tallies"]

        # The recomputed shards were re-journaled: a further resume
        # replays the whole corpus without touching a pool.
        with RunJournal(str(journal_dir)) as journal:
            final = ingest_shards(
                corpus, jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        assert final.supervisor.journal_replayed == 5
        assert canon(final.chains) == reference["canon"]

    def test_same_size_edit_recomputes_the_edited_shard(self, corpus,
                                                        tmp_path):
        """An in-place edit that keeps a shard's byte count (every
        ``established`` T flipped to F) must read as stale on resume,
        not replay the partial journaled before the edit."""
        shard_dir = tmp_path / "shards"
        shutil.copytree(os.path.dirname(corpus[0].ssl_path), shard_dir)
        shards = discover_shards(str(shard_dir))
        assert len(shards) == 4
        assert len({spec.x509_path for spec in shards}) == 1  # broadcast
        journal_dir = str(tmp_path / "journal")
        with RunJournal(journal_dir) as journal:
            ingest_shards(shards, jobs=2,
                          supervise=SupervisorConfig(journal=journal))

        edited = shards[1].ssl_path
        size = os.path.getsize(edited)
        assert flip_established(edited) > 0
        assert os.path.getsize(edited) == size

        with RunJournal(journal_dir) as journal:
            resumed = ingest_shards(
                shards, jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        fresh = ingest_shards(shards, jobs=2)
        # the x509 task and the three untouched shards
        assert resumed.supervisor.journal_replayed == 4
        assert established(resumed) == established(fresh)
        assert canon(resumed.chains) == canon(fresh.chains)

    def test_same_size_x509_edit_recomputes_every_shard(self, corpus,
                                                        tmp_path):
        """Shard partials key their chains by positions in the x509
        log's fingerprint list, so a same-size edit of that log must
        make the x509 task and every shard joining it stale."""
        shard_dir = tmp_path / "shards"
        shutil.copytree(os.path.dirname(corpus[0].ssl_path), shard_dir)
        shards = discover_shards(str(shard_dir))
        journal_dir = str(tmp_path / "journal")
        with RunJournal(journal_dir) as journal:
            ingest_shards(shards, jobs=2,
                          supervise=SupervisorConfig(journal=journal))

        x509_path = shards[0].x509_path
        with open(x509_path, "rb") as handle:
            data = handle.read()
        # Overwrite the first certificate row's fingerprint at constant
        # size: the chains that reference it lose a certificate.
        first = next(line for line in data.split(b"\n")
                     if line and not line.startswith(b"#"))
        fingerprint = first.split(b"\t")[1]
        edited = data.replace(fingerprint, b"0" * len(fingerprint), 1)
        assert len(edited) == len(data) and edited != data
        with open(x509_path, "wb") as handle:
            handle.write(edited)

        with RunJournal(journal_dir) as journal:
            resumed = ingest_shards(
                shards, jobs=2,
                supervise=SupervisorConfig(journal=journal, resume=True))
        fresh = ingest_shards(shards, jobs=2)
        assert resumed.supervisor.journal_replayed == 0
        assert resumed.missing_certs > 0
        assert canon(resumed.chains) == canon(fresh.chains)
        assert tallies(resumed) == tallies(fresh)

    def test_resume_under_chaos_still_byte_identical(self, corpus,
                                                     reference, tmp_path):
        """Journal replay and crash recovery compose: replayed shards
        skip the pool entirely, recomputed ones ride supervised retry."""
        journal_dir = tmp_path / "journal"
        with RunJournal(str(journal_dir)) as journal:
            ingest_shards(corpus, jobs=1,
                          supervise=SupervisorConfig(journal=journal))
        journal_path = journal_dir / JOURNAL_NAME
        lines = journal_path.read_text().splitlines()
        # keep the x509 task's line and the first two shards'
        journal_path.write_text("\n".join(lines[:3]) + "\n")

        config = SupervisorConfig(plan=INGEST_CHAOS, max_task_retries=2,
                                  task_timeout=TASK_TIMEOUT,
                                  resume=True)
        with RunJournal(str(journal_dir)) as journal:
            config.journal = journal
            resumed = ingest_shards(corpus, jobs=2, supervise=config)
        assert resumed.supervisor.journal_replayed == 3
        assert canon(resumed.chains) == reference["canon"]
        assert tallies(resumed) == reference["tallies"]
