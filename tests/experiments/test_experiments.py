"""Experiment registry, runners, and the CLI."""

from __future__ import annotations

import pytest

from repro.campus import cached_campus_dataset
from repro.experiments import registry, run_experiment
from repro.experiments.cli import build_parser, main

ALL_EXPERIMENTS = sorted(registry())


@pytest.fixture(scope="module")
def dataset():
    return cached_campus_dataset(seed=5, scale="small")


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {"table1", "table2", "table3", "table4", "table5",
                    "table6", "table7", "table8", "figure1", "figure4",
                    "figure5", "figure6", "figure7", "figure8",
                    "section4.3", "section5"}
        assert expected <= set(ALL_EXPERIMENTS)

    def test_ablations_registered(self):
        assert {"ablation-crosssign", "ablation-truststores",
                "ablation-blindspot"} <= set(ALL_EXPERIMENTS)

    def test_unknown_experiment_raises(self, dataset):
        with pytest.raises(KeyError):
            run_experiment("table99", dataset)


@pytest.mark.parametrize("exp_id", ALL_EXPERIMENTS)
def test_experiment_runs_and_renders(exp_id, dataset):
    result = run_experiment(exp_id, dataset)
    assert result.exp_id == exp_id
    assert result.title
    # Rendered table has a header rule and at least one data row.
    lines = result.rendered.splitlines()
    assert len(lines) >= 4
    assert set(lines[2]) <= {"-", " "}
    assert result.measured


def test_figure1_reports_excluded_lengths_longest_first():
    # The measured outliers follow the rendered row's order, not the
    # order the chains were observed in ([921, 41, 3822] at this seed).
    result = run_experiment("figure1",
                            cached_campus_dataset(seed=7, scale="small"))
    assert result.measured["excluded"] == [3822, 921, 41]


class TestCLI:
    def test_listing_mode(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "section5" in out

    def test_run_one_experiment(self, capsys):
        assert main(["--scale", "small", "--seed", "5",
                     "-e", "table6"]) == 0
        out = capsys.readouterr().out
        assert "Table 6" in out
        assert "Government" in out

    def test_unknown_experiment_exits_nonzero(self, capsys):
        assert main(["--scale", "small", "--seed", "5",
                     "-e", "table99"]) == 2

    def test_log_mode_requires_both_paths(self):
        with pytest.raises(SystemExit):
            main(["--ssl-log", "only-one.log"])

    def test_log_mode(self, dataset, tmp_path, capsys):
        ssl_path, x509_path = dataset.write_zeek_logs(str(tmp_path))
        assert main(["--ssl-log", ssl_path, "--x509-log", x509_path]) == 0
        out = capsys.readouterr().out
        assert "Chain categories" in out
        assert "hybrid" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.scale == "small"
        assert args.seed == "0"
