"""CLI supervised-execution flags: --task-timeout, --max-task-retries,
--run-journal / --resume — the operator surface of the supervisor and
the acceptance path for the worker-fault chaos CI job."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.experiments.cli import main
from repro.parallel import split_zeek_log
from repro.parallel.pool import NO_CPU_CLAMP_VAR

#: Crashes ≥2 first-attempt ingest workers (seed searched); every task
#: clears within the default retry budget.
CHAOS_PLAN = "seed=chaos-27,worker_crash_rate=0.5"


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-sup")
    dataset = cached_campus_dataset(seed="par-eq", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shards = base / "shards"
    split_zeek_log(ssl_path, str(shards), 4)
    dst = shards / "x509.log"
    shutil.copy(x509_path, dst)
    return str(shards)


@pytest.fixture(autouse=True)
def _lift_cpu_clamp(monkeypatch):
    monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")


def tables_only(out: str) -> str:
    """Everything through the summary tallies — the bytes that must be
    invariant under chaos (degradation footers may differ)."""
    marker = "hybrid chains:"
    assert marker in out
    return out[: out.index("\n", out.index(marker)) + 1]


class TestFlagValidation:
    def test_task_timeout_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--task-timeout", "0"])
        assert excinfo.value.code == 2
        assert "--task-timeout must be positive" in capsys.readouterr().err

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--max-task-retries", "-1"])
        assert excinfo.value.code == 2
        assert "--max-task-retries" in capsys.readouterr().err

    def test_resume_accepts_run_journal_without_checkpoints(
            self, shard_dir, tmp_path, capsys):
        status = main(["--shard-dir", shard_dir, "--resume",
                       "--run-journal", str(tmp_path / "journal")])
        assert status == 0
        assert "Chain categories" in capsys.readouterr().out

    def test_generate_resume_requires_run_journal(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--out", str(tmp_path / "g"), "--resume"])
        assert excinfo.value.code == 2
        assert "--run-journal" in capsys.readouterr().err


class TestWorkerChaosRun:
    def test_crash_plan_recovers_with_identical_tables(
            self, shard_dir, tmp_path, capsys):
        assert main(["--shard-dir", shard_dir, "--jobs", "2"]) == 0
        clean_out = capsys.readouterr().out

        report_path = tmp_path / "report.json"
        status = main(["--shard-dir", shard_dir, "--jobs", "2",
                       "--fault-plan", CHAOS_PLAN,
                       "--max-task-retries", "2",
                       "--run-report", str(report_path)])
        chaos_out = capsys.readouterr().out
        assert status == 0
        assert "recovered from" in chaos_out
        assert "worker_crash" in chaos_out
        assert tables_only(chaos_out) == tables_only(clean_out)

        resilience = json.loads(report_path.read_text())["resilience"]
        assert resilience["supervisor_worker_crashes"] >= 2
        assert resilience["supervisor_pool_rebuilds"] >= 1

    def test_analysis_incidents_reported_unless_served_from_a_store(
            self, shard_dir, tmp_path, capsys):
        """Logs mode echoes the analysis dispatch's incidents after
        ingest's; an analysis served from the checkpoint ran no dispatch,
        so it reports none."""
        args = ["--shard-dir", shard_dir, "--jobs", "2",
                "--fault-plan", CHAOS_PLAN, "--max-task-retries", "2",
                "--checkpoint-dir", str(tmp_path / "checkpoints")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "supervisor[analysis]: recovered from worker_crash" in out
        assert out.index("supervisor[ingest]") < \
            out.index("supervisor[analysis]")

        assert main(args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "supervisor[analysis]" not in resumed_out
        assert tables_only(resumed_out) == tables_only(out)

    def test_task_timeout_flag_reaches_the_engines(self, shard_dir, capsys):
        # A generous deadline on a healthy run: nothing flagged, clean exit.
        status = main(["--shard-dir", shard_dir, "--jobs", "2",
                       "--task-timeout", "120"])
        out = capsys.readouterr().out
        assert status == 0
        assert "Chain categories" in out
        assert "recovered from" not in out


class TestJournalResume:
    def test_second_run_replays_the_journal(self, shard_dir, tmp_path,
                                            capsys):
        journal_dir = tmp_path / "journal"
        args = ["--shard-dir", shard_dir, "--jobs", "2",
                "--run-journal", str(journal_dir)]
        assert main(args) == 0
        first_out = capsys.readouterr().out
        # One namespaced journal per engine; one x509 log, four shards.
        ingest_lines = (journal_dir / "ingest"
                        / "journal.jsonl").read_text().splitlines()
        assert len(ingest_lines) == 5
        assert (journal_dir / "analysis" / "journal.jsonl").exists()

        assert main(args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "served from the run journal" in resumed_out
        assert tables_only(resumed_out) == tables_only(first_out)

    def test_generate_resume_replays_journaled_shards(self, tmp_path,
                                                      capsys):
        out = str(tmp_path / "gen")
        journal_dir = str(tmp_path / "journal")
        args = ["generate", "--out", out, "--seed", "11",
                "--scale", "small", "--run-journal", journal_dir]
        assert main(args) == 0
        capsys.readouterr()
        with open(os.path.join(out, "x509.log"), "rb") as handle:
            first_x509 = handle.read()

        assert main(args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "served from the run journal" in resumed_out
        with open(os.path.join(out, "x509.log"), "rb") as handle:
            assert handle.read() == first_x509

    def test_generate_resume_regenerates_a_truncated_shard(self, tmp_path,
                                                           capsys):
        """A shard cut short after its interval was journaled must be
        regenerated on resume, not replayed from the journal."""
        clean = str(tmp_path / "clean")
        assert main(["generate", "--out", clean, "--seed", "t",
                     "--scale", "small", "--jobs", "1"]) == 0
        out = str(tmp_path / "gen")
        args = ["generate", "--out", out, "--seed", "t", "--scale", "small",
                "--jobs", "1", "--run-journal", str(tmp_path / "journal")]
        assert main(args) == 0
        shard = os.path.join(out, "ssl-03.log")
        os.truncate(shard, os.path.getsize(shard) // 2)
        capsys.readouterr()

        assert main(args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "11 tasks served from the run journal" in resumed_out
        for name in sorted(os.listdir(clean)):
            with open(os.path.join(clean, name), "rb") as expected, \
                    open(os.path.join(out, name), "rb") as resumed:
                assert resumed.read() == expected.read(), name
