"""The ``generate`` subcommand: flags, output layout, and the closed loop."""

from __future__ import annotations

import json
import os

import pytest

from repro.campus.workload import GENERATION_SHARDS
from repro.experiments.cli import main


class TestGenerateCommand:
    def test_generates_discoverable_shard_layout(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        assert main(["generate", "--out", out, "--seed", "11",
                     "--scale", "small"]) == 0
        message = capsys.readouterr().out
        assert "broadcast x509.log" in message
        assert f"--shard-dir {out}" in message
        names = sorted(os.listdir(out))
        assert names == [f"ssl-{s:02d}.log"
                         for s in range(GENERATION_SHARDS)] + ["x509.log"]
        # No hidden merge intermediates left behind.
        assert not [n for n in os.listdir(out) if n.endswith(".part")]

    def test_generated_dir_feeds_shard_dir_analysis(self, tmp_path, capsys):
        out = str(tmp_path / "loop")
        assert main(["generate", "--out", out, "--seed", "11",
                     "--scale", "small"]) == 0
        capsys.readouterr()
        assert main(["--shard-dir", out, "--jobs", "2"]) == 0
        analysis = capsys.readouterr().out
        assert "Chain categories" in analysis
        assert "distinct certificates:" in analysis

    def test_rejects_nonpositive_jobs(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--out", str(tmp_path / "x"), "--jobs", "0"])
        assert "--jobs must be at least 1" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        status = main(["generate", "--out", str(blocker / "sub")])
        captured = capsys.readouterr()
        assert status == 2
        assert "Traceback" not in captured.err

    def test_metrics_export_covers_generation(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        metrics = tmp_path / "metrics.prom"
        assert main(["generate", "--out", out, "--seed", "11",
                     "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        text = metrics.read_text()
        assert "repro_generate_shards_total" in text
        assert 'repro_zeek_rows_total{direction="written"' in text

    def test_run_report_records_generate_argv(self, tmp_path, capsys):
        out = str(tmp_path / "gen")
        report = tmp_path / "run.json"
        assert main(["generate", "--out", out, "--seed", "11",
                     "--run-report", str(report)]) == 0
        capsys.readouterr()
        recorded = json.loads(report.read_text())
        assert recorded["argv"][0] == "generate"
