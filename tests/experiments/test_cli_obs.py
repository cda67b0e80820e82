"""CLI observability flags: --metrics-out, --run-report, --version, errors."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.cli import main, package_version


class TestVersion:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "certchain-analyze" in out
        assert package_version() in out

    def test_package_version_is_nonempty(self):
        assert package_version()


class TestLogsModeErrors:
    def test_missing_ssl_log_exits_2_with_one_line_error(self, tmp_path,
                                                         capsys):
        missing = str(tmp_path / "nope.log")
        status = main(["--ssl-log", missing, "--x509-log", missing])
        captured = capsys.readouterr()
        assert status == 2
        assert captured.err.count("\n") == 1
        assert "cannot read log" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_log_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("#fields\ta\tb\n#types\tstring\tstring\nonly-one\n")
        status = main(["--ssl-log", str(bad), "--x509-log", str(bad)])
        assert status == 2
        assert "malformed Zeek log" in capsys.readouterr().err

    def test_only_one_log_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--ssl-log", "x.log"])
        assert excinfo.value.code == 2


class TestObservabilityOutputs:
    def test_metrics_and_run_report_written(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        report = tmp_path / "report.json"
        # A unique seed forces a fresh (uncached) dataset + analysis so the
        # counters below reflect a real pipeline run inside this main().
        status = main(["--scale", "small", "--seed", "obs-cli-report",
                       "-e", "table2",
                       "--metrics-out", str(metrics),
                       "--run-report", str(report)])
        assert status == 0
        capsys.readouterr()

        text = metrics.read_text()
        assert "# TYPE repro_pipeline_chains_total counter" in text
        assert "repro_interception_chains_total" in text

        data = json.loads(report.read_text())
        assert data["version"] == package_version()
        assert "analyze_chains" in data["stages"]
        assert data["throughput"]["chains_analyzed"] > 0
        assert "structure_cache_hit_rate" in data["cache"]
        assert data["counters"]["interception_verdicts"]

    def test_unwritable_metrics_path_exits_2_cleanly(self, tmp_path, capsys):
        metrics = tmp_path / "no" / "such" / "dir" / "m.prom"
        status = main(["--scale", "small", "-e", "table2",
                       "--metrics-out", str(metrics)])
        captured = capsys.readouterr()
        assert status == 2
        assert "cannot write metrics" in captured.err
        assert "Traceback" not in captured.err

    def test_json_metrics_when_path_ends_json(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        status = main(["--scale", "small", "-e", "table2",
                       "--metrics-out", str(metrics)])
        assert status == 0
        capsys.readouterr()
        data = json.loads(metrics.read_text())
        assert data["repro_pipeline_chains_total"]["kind"] == "counter"

    def test_trace_out_written_and_valid(self, tmp_path, capsys):
        from repro.obs.traceexport import validate_trace
        trace_path = tmp_path / "trace.json"
        # Unique seed: a cached dataset would skip the analysis spans.
        status = main(["--scale", "small", "--seed", "obs-cli-trace",
                       "-e", "table2", "--trace-out", str(trace_path)])
        assert status == 0
        capsys.readouterr()
        trace = json.loads(trace_path.read_text())
        validate_trace(trace)
        span_names = {e["name"] for e in trace["traceEvents"]
                      if e["ph"] == "X"}
        assert "analyze_chains" in span_names

    def test_unwritable_trace_path_exits_2_cleanly(self, tmp_path, capsys):
        trace_path = tmp_path / "no" / "such" / "dir" / "t.json"
        status = main(["--scale", "small", "-e", "table2",
                       "--trace-out", str(trace_path)])
        captured = capsys.readouterr()
        assert status == 2
        assert "cannot write trace" in captured.err
        assert "Traceback" not in captured.err


class TestBenchReportDispatch:
    def test_bench_report_subcommand_routes_and_reports(self, tmp_path,
                                                        capsys):
        bench = tmp_path / "BENCH_ingest.json"
        bench.write_text(json.dumps({
            "read": {"compiled_rows_per_second": 120000.0,
                     "compiled_over_legacy": 2.0},
            "engine": {"1": {"speedup_vs_serial": 1.5}}}))
        status = main(["bench-report", "--dir", str(tmp_path), "--check"])
        assert status == 0
        assert "Benchmark trajectory" in capsys.readouterr().out

    def test_bench_report_check_failure_propagates_exit_code(self,
                                                             tmp_path,
                                                             capsys):
        bench = tmp_path / "BENCH_ingest.json"
        bench.write_text(json.dumps({
            "read": {"compiled_rows_per_second": 1.0}}))
        status = main(["bench-report", "--dir", str(tmp_path), "--check"])
        assert status == 1
        assert "FAIL" in capsys.readouterr().out

    def test_two_runs_identical_counters(self, tmp_path):
        """The acceptance criterion: same seed, two fresh processes, and
        every metric name/label/counter value matches — only durations
        (the span histogram) may differ."""
        def run(tag: str) -> dict:
            path = tmp_path / f"{tag}.json"
            env = dict(os.environ)
            src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
            env["PYTHONPATH"] = os.path.abspath(src) + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
                else "")
            subprocess.run(
                [sys.executable, "-m", "repro.experiments.cli",
                 "--scale", "small", "-e", "table2",
                 "--metrics-out", str(path)],
                check=True, env=env, capture_output=True, timeout=300)
            data = json.loads(path.read_text())
            # Durations are the only values allowed to differ.
            data.pop("repro_span_duration_seconds", None)
            return data

        assert run("a") == run("b")
