"""Experiments for the paper's Figures 1, 4, 5, 6, 7, 8.

Figures are reproduced as printable series: the CDF points behind Figure 1,
the per-position cell grid behind Figure 4, the graph summaries behind
Figures 5/7/8, and the histogram behind Figure 6 (Appendix G).
"""

from __future__ import annotations

from collections import Counter

from ..campus.dataset import CampusDataset
from ..campus.profiles import PAPER
from ..core.categorization import ChainCategory
from ..core.hybrid import HybridCategory
from ..core.lengths import exclude_outliers
from ..core.report import render_table
from ..core.structures import (
    build_cooccurrence_graph,
    build_issuance_graph,
    complex_subgraph,
    summarize_graph,
)
from .base import ExperimentResult, comparison_table, experiment

__all__ = ["run_figure1", "run_figure4", "run_figure5", "run_figure6",
           "run_figure7", "run_figure8"]


@experiment("figure1")
def run_figure1(dataset: CampusDataset) -> ExperimentResult:
    """Figure 1: chain length CDF per category."""
    result = dataset.analyze()
    distributions = result.length_distributions()
    rows = []
    checks = [
        (ChainCategory.PUBLIC_ONLY, "cum. fraction at length 2",
         f">= {PAPER.public_len2_share_pct / 100:.2f}",
         lambda d: f"{d.cumulative_fraction_at(2):.3f}"),
        (ChainCategory.NON_PUBLIC_ONLY, "fraction at length 1",
         f"~{PAPER.nonpub_len1_share_pct / 100:.3f}",
         lambda d: f"{d.fraction_at(1):.3f}"),
        (ChainCategory.INTERCEPTION, "fraction at length 3",
         f">= {PAPER.interception_len3_share_pct / 100:.2f}",
         lambda d: f"{d.fraction_at(3):.3f}"),
        (ChainCategory.HYBRID, "dominant length",
         "none dominates (<50%)",
         lambda d: f"len {d.dominant_length()} at "
                   f"{d.fraction_at(d.dominant_length() or 0):.3f}"),
    ]
    for category, metric, paper_value, extract in checks:
        rows.append([f"{category.value}: {metric}", paper_value,
                     extract(distributions[category]), ""])
    # Outlier exclusion (the paper drops 3 monster chains observed once).
    _, excluded = exclude_outliers(
        result.categorized.chains(ChainCategory.NON_PUBLIC_ONLY))
    excluded_lengths = sorted((c.length for c in excluded), reverse=True)
    rows.append(["excluded outlier lengths",
                 str(list(PAPER.outlier_lengths)), str(excluded_lengths),
                 "all unestablished, observed once"])
    cdf_lines = []
    for category in ChainCategory:
        points = distributions[category].cdf()
        series = " ".join(f"({length},{fraction:.3f})"
                          for length, fraction in points[:10])
        cdf_lines.append([category.value, "-", series, "CDF points"])
    rendered = comparison_table("Figure 1 — chain length distribution",
                                rows + cdf_lines)
    return ExperimentResult("figure1", "Chain length CDF", rendered, {
        "cdf": {c.value: distributions[c].cdf() for c in ChainCategory},
        "excluded": excluded_lengths,
    })


@experiment("figure4")
def run_figure4(dataset: CampusDataset) -> ExperimentResult:
    """Figure 4: structure grid of contains-complete-path hybrid chains."""
    result = dataset.analyze()
    grid = result.hybrid.figure4_grid()
    counts = result.hybrid.figure4_label_counts()
    rows = [["chains in grid", PAPER.hybrid_contains_complete, len(grid), ""]]
    for label, count in counts.most_common():
        rows.append([f"cells: {label.value}", "-", count, ""])
    tallest = max((len(column) for column in grid), default=0)
    rows.append(["tallest chain", "~12 (figure y-axis)", tallest, ""])
    rendered = comparison_table(
        "Figure 4 — hybrid chains containing a complete matched path", rows)
    return ExperimentResult("figure4", "Structure grid", rendered, {
        "grid": [[cell.value for cell in column] for column in grid],
        "label_counts": {k.value: v for k, v in counts.items()},
    })


@experiment("figure5")
def run_figure5(dataset: CampusDataset) -> ExperimentResult:
    """Figure 5: certificate relationship graph of hybrid chains."""
    result = dataset.analyze()
    graph = build_cooccurrence_graph(
        result.categorized.chains(ChainCategory.HYBRID), result.classifier)
    summary = summarize_graph(graph)
    rows = [
        ["nodes (distinct certificates)", "-", summary.nodes, ""],
        ["co-occurrence edges", "-", summary.edges, ""],
        ["public-DB nodes", "-",
         dict(summary.nodes_by_class).get("public-db", 0), "blue in figure"],
        ["non-public-DB nodes", "-",
         dict(summary.nodes_by_class).get("non-public-db", 0),
         "red in figure"],
        ["connected components", "-", summary.components, ""],
        ["max node degree", "-", summary.max_degree,
         "shared public intermediates are hubs"],
    ]
    rendered = comparison_table(
        "Figure 5 — certificates in hybrid chains (co-occurrence graph)",
        rows)
    return ExperimentResult("figure5", "Hybrid PKI graph", rendered,
                            {"summary": summary.as_dict()})


@experiment("figure6")
def run_figure6(dataset: CampusDataset) -> ExperimentResult:
    """Figure 6 / Appendix G: mismatch-ratio histogram for no-path chains."""
    result = dataset.analyze()
    histogram = result.hybrid.figure6_histogram()
    share = result.hybrid.high_mismatch_share(0.5)
    rows = [["share with ratio >= 0.5",
             f"{PAPER.no_path_high_mismatch_share_pct:.2f}%",
             f"{share:.2f}%", ""]]
    for upper, count in histogram:
        rows.append([f"ratio <= {upper:.1f}", "-", count, ""])
    rendered = comparison_table("Figure 6 — mismatch ratio distribution",
                                rows)
    return ExperimentResult("figure6", "Mismatch ratios", rendered,
                            {"histogram": histogram, "high_share": share})


def _complex_figure(dataset: CampusDataset, category: ChainCategory,
                    exp_id: str, title: str) -> ExperimentResult:
    result = dataset.analyze()
    graph = build_issuance_graph(result.categorized.chains(category))
    summary = summarize_graph(graph)
    sub = complex_subgraph(graph)
    rows = [
        ["issuance-graph nodes", "-", summary.nodes, ""],
        ["issuance-graph edges", "-", summary.edges, ""],
        ["complex intermediates (>=3 links)", ">= 1",
         summary.complex_intermediates, "Appendix I criterion"],
        ["complex subgraph nodes", "-", sub.number_of_nodes(), ""],
        ["complex subgraph roles", "-",
         str(dict(Counter(sub.nodes[n].get("role") for n in sub))), ""],
    ]
    rendered = comparison_table(title, rows)
    return ExperimentResult(exp_id, title, rendered, {
        "summary": summary.as_dict(),
        "complex_nodes": sub.number_of_nodes(),
    })


@experiment("figure7")
def run_figure7(dataset: CampusDataset) -> ExperimentResult:
    return _complex_figure(
        dataset, ChainCategory.NON_PUBLIC_ONLY, "figure7",
        "Figure 7 — complex PKI structures in non-public-only chains")


@experiment("figure8")
def run_figure8(dataset: CampusDataset) -> ExperimentResult:
    return _complex_figure(
        dataset, ChainCategory.INTERCEPTION, "figure8",
        "Figure 8 — complex PKI structures in interception chains")
