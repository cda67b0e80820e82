"""Experiments for in-text results: §4.3's single-certificate and DGA
statistics and §5's revisit."""

from __future__ import annotations

from ..campus.dataset import CampusDataset
from ..campus.profiles import PAPER
from ..core.categorization import ChainCategory
from .base import ExperimentResult, comparison_table, experiment

__all__ = ["run_section43", "run_section5"]


@experiment("section4.3")
def run_section43(dataset: CampusDataset) -> ExperimentResult:
    """§4.3: single-certificate chains and the DGA cluster."""
    result = dataset.analyze()
    nonpub = result.single_cert_stats(ChainCategory.NON_PUBLIC_ONLY)
    intercept = result.single_cert_stats(ChainCategory.INTERCEPTION)
    rows = [
        ["non-public single-chain share",
         f"{PAPER.nonpub_len1_share_pct:.2f}%",
         f"{nonpub.share_of_category:.2f}%", ""],
        ["non-public singles self-signed",
         f"{PAPER.nonpub_single_self_signed_pct:.2f}%",
         f"{nonpub.self_signed_pct:.2f}%", ""],
        ["non-public single conns without SNI",
         f"{PAPER.nonpub_single_no_sni_pct:.2f}%",
         f"{nonpub.no_sni_connection_pct:.2f}%", ""],
        ["interception single-chain share",
         f"{PAPER.interception_single_share_pct:.2f}%",
         f"{intercept.share_of_category:.2f}%", ""],
        ["interception singles self-signed",
         f"{PAPER.interception_single_self_signed_pct:.2f}%",
         f"{intercept.self_signed_pct:.2f}%", ""],
    ]
    if result.dga_clusters:
        cluster = max(result.dga_clusters, key=lambda c: len(c.chains))
        low, high = cluster.validity_range_days()
        rows.extend([
            ["DGA cluster template", "www[dot]randomstring[dot]com",
             cluster.template, ""],
            ["DGA connections / client IPs",
             f"{PAPER.dga_connections:,} / {PAPER.dga_client_ips}",
             f"{cluster.connections:,} / {cluster.client_ips}",
             "scaled population"],
            ["DGA validity range (days)",
             f"{PAPER.dga_validity_days[0]}-{PAPER.dga_validity_days[1]}",
             f"{low}-{high}", ""],
        ])
    else:
        rows.append(["DGA cluster", "1 cluster", "none detected", "FAIL"])
    rendered = comparison_table("§4.3 — single-certificate chains and DGA",
                                rows)
    return ExperimentResult("section4.3", "Single-certificate statistics",
                            rendered, {
                                "nonpub": nonpub,
                                "interception": intercept,
                                "dga_clusters": len(result.dga_clusters),
                            })


@experiment("section5")
def run_section5(dataset: CampusDataset) -> ExperimentResult:
    """§5: the November-2024 revisit."""
    # The active-scan simulator loads on first use.
    from ..scan.revisit import run_revisit

    report = run_revisit(dataset, seed=dataset.seed)
    le_share = (100.0 * report.hybrid_to_public_lets_encrypt
                / report.hybrid_to_public if report.hybrid_to_public else 0.0)
    shares = report.prev_state_shares()
    rows = [
        ["hybrid servers reachable",
         f"270/321 ({PAPER.revisit_hybrid_reachable_pct:.1f}%)",
         f"{report.hybrid_reachable}/{report.hybrid_total} "
         f"({report.hybrid_reachable_pct:.1f}%)", ""],
        ["now public-DB-only", PAPER.revisit_hybrid_to_public,
         report.hybrid_to_public,
         f"Let's Encrypt share {le_share:.0f}% (paper: 'majority')"],
        ["now non-public-only", PAPER.revisit_hybrid_to_nonpub,
         report.hybrid_to_nonpub, "exact cell"],
        ["still hybrid (clean/unnec/no-path)",
         f"{PAPER.revisit_hybrid_still_hybrid} "
         f"({PAPER.revisit_still_hybrid_complete_clean}/"
         f"{PAPER.revisit_still_hybrid_complete_unnecessary}/23)",
         f"{report.hybrid_still_hybrid} "
         f"({report.still_complete_clean}/"
         f"{report.still_complete_unnecessary}/{report.still_no_path})", ""],
        ["Chrome-vs-OpenSSL divergence",
         "Chrome validates, OpenSSL rejects (3 chains)",
         f"browser OK {report.divergent_browser_ok}/"
         f"{report.divergent_chains}, strict OK "
         f"{report.divergent_strict_ok}/{report.divergent_chains}", ""],
        ["non-public servers scanned", f"{PAPER.revisit_nonpub_scanned:,}",
         report.nonpub_scanned, "scaled population"],
        ["still non-public-only", "100%",
         f"{100.0 * report.nonpub_still_nonpub / report.nonpub_scanned:.1f}%"
         if report.nonpub_scanned else "n/a", ""],
        ["now multi-certificate",
         f"{PAPER.revisit_nonpub_now_multi_pct:.2f}%",
         f"{report.nonpub_now_multi_pct:.2f}%", ""],
        ["of now-multi: previously multi",
         f"{PAPER.revisit_prev_multi_pct:.2f}%",
         f"{shares['prev_multi_pct']:.2f}%", ""],
        ["of now-multi: prev single self-signed",
         f"{PAPER.revisit_prev_single_self_signed_pct:.2f}%",
         f"{shares['prev_single_self_signed_pct']:.2f}%", ""],
        ["of now-multi: prev single distinct",
         f"{PAPER.revisit_prev_single_distinct_pct:.2f}%",
         f"{shares['prev_single_distinct_pct']:.2f}%", ""],
        ["new multi chains complete matched paths",
         f"{PAPER.revisit_multi_complete_pct:.2f}%",
         f"{report.nonpub_multi_complete_pct:.2f}%", ""],
    ]
    rendered = comparison_table("§5 — November 2024 revisit", rows)
    return ExperimentResult("section5", "Retrospective revisit", rendered,
                            {"report": report})
