"""CLI parallel flags: --shard-dir and --jobs produce identical output."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.experiments.cli import NO_CONTEXT_WARNING, main
from repro.parallel import split_zeek_log


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli-parallel")
    dataset = cached_campus_dataset(seed="cli-par", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(base / "whole"))
    shard_dir = base / "shards"
    split_zeek_log(ssl_path, str(shard_dir), 3)
    shutil.copy(x509_path, shard_dir / "x509.log")
    return {"ssl": ssl_path, "x509": x509_path, "shard_dir": str(shard_dir)}


class TestShardDirFlag:
    def test_shard_dir_matches_single_pair_tables(self, corpus, capsys):
        assert main(["--ssl-log", corpus["ssl"],
                     "--x509-log", corpus["x509"]]) == 0
        single = capsys.readouterr().out
        assert main(["--shard-dir", corpus["shard_dir"], "--jobs", "2"]) == 0
        sharded = capsys.readouterr().out
        # Same analysis, different corpus label: compare everything after
        # the table title line.
        assert single.splitlines()[1:] == sharded.splitlines()[1:]
        assert corpus["shard_dir"] in sharded

    def test_jobs_counts_agree(self, corpus, capsys):
        outputs = []
        for jobs in ("1", "3"):
            assert main(["--shard-dir", corpus["shard_dir"],
                         "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "distinct certificates:" in outputs[0]

    def test_empty_shard_dir_exits_2(self, tmp_path, capsys):
        status = main(["--shard-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert status == 2
        assert "no ssl" in captured.err
        assert "Traceback" not in captured.err


class TestQuarantineParity:
    def test_quarantine_jsonl_identical_across_jobs(self, corpus, tmp_path,
                                                    capsys):
        plan = "zeek_corrupt_rate=0.05"
        dumps = []
        for jobs in ("1", "3"):
            out_path = tmp_path / f"quarantine-{jobs}.jsonl"
            assert main(["--shard-dir", corpus["shard_dir"], "--jobs", jobs,
                         "--fault-plan", plan,
                         "--quarantine-out", str(out_path)]) == 0
            capsys.readouterr()
            dumps.append([json.loads(line) for line in
                          out_path.read_text().splitlines()])
        assert dumps[0]  # corruption produced quarantined rows
        assert dumps[0] == dumps[1]


class TestAnalysisCacheFlag:
    def test_warm_run_identical_and_artifact_present(self, corpus, tmp_path,
                                                     capsys):
        cache_dir = tmp_path / "analysis-cache"
        outputs = []
        for _ in range(2):
            assert main(["--shard-dir", corpus["shard_dir"], "--jobs", "2",
                         "--analysis-cache", str(cache_dir)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        artifacts = [entry for entry in cache_dir.iterdir()
                     if entry.name.startswith("artifact-")]
        assert len(artifacts) == 1

    def test_cache_shared_between_serial_and_parallel_runs(self, corpus,
                                                           tmp_path, capsys):
        cache_dir = tmp_path / "analysis-cache"
        assert main(["--ssl-log", corpus["ssl"], "--x509-log", corpus["x509"],
                     "--analysis-cache", str(cache_dir)]) == 0
        cold = capsys.readouterr().out
        assert main(["--ssl-log", corpus["ssl"], "--x509-log", corpus["x509"],
                     "--jobs", "2", "--analysis-cache", str(cache_dir)]) == 0
        warm = capsys.readouterr().out
        assert cold == warm
        assert len(list(cache_dir.iterdir())) == 1


class TestFlagValidation:
    def test_jobs_requires_log_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--jobs", "2"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, corpus, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--shard-dir", corpus["shard_dir"], "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_analysis_cache_requires_log_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--analysis-cache", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "--analysis-cache" in capsys.readouterr().err

    def test_shard_dir_excludes_single_pair_flags(self, corpus, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--shard-dir", corpus["shard_dir"],
                  "--ssl-log", corpus["ssl"]])
        assert excinfo.value.code == 2
        assert "--shard-dir" in capsys.readouterr().err


class TestMissingContextWarning:
    """Logs mode analyzes without a CT index, vendor directory or
    disclosures; it says so on stderr, once, and stdout is unchanged."""

    def test_logs_mode_emits_exactly_the_warning(self, corpus, capsys):
        for args in (["--shard-dir", corpus["shard_dir"], "--jobs", "2"],
                     ["--ssl-log", corpus["ssl"],
                      "--x509-log", corpus["x509"]]):
            assert main(args) == 0
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [NO_CONTEXT_WARNING]
            assert "warning" not in captured.out

    def test_simulate_mode_does_not_warn(self, capsys):
        assert main(["--scale", "small", "--seed", "cli-par",
                     "-e", "table2"]) == 0
        assert NO_CONTEXT_WARNING not in capsys.readouterr().err
