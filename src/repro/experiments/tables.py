"""Experiments for the paper's Tables 1–4 and 6–8.

(Table 5 needs the crypto corpus, not the campus dataset, and lives in
:mod:`repro.experiments.table5`.)
"""

from __future__ import annotations

from ..campus.dataset import CampusDataset
from ..campus.profiles import PAPER
from ..core.categorization import ChainCategory
from ..core.chain import ChainUsage
from ..core.hybrid import HybridCategory
from ..core.report import render_table
from .base import ExperimentResult, comparison_table, experiment

__all__ = ["run_table1", "run_table2", "run_table3", "run_table4",
           "run_table6", "run_table7", "run_table8"]


@experiment("table1")
def run_table1(dataset: CampusDataset) -> ExperimentResult:
    """Table 1: categories of issuers conducting TLS interception."""
    result = dataset.analyze()
    measured_rows = result.interception.category_table(result.chains)
    paper = {category: (issuers, pct, ips)
             for category, issuers, pct, ips
             in PAPER.interception_issuer_categories}
    rows = []
    for row in measured_rows:
        p_issuers, p_pct, p_ips = paper[row["category"]]
        rows.append([row["category"],
                     f"{p_issuers} / {p_pct:.2f}% / {p_ips:,}",
                     f"{row['issuers']} / {row['pct_connections']:.2f}% / "
                     f"{row['client_ips']:,}",
                     ""])
    rendered = comparison_table(
        "Table 1 — TLS interception issuer categories "
        "(issuers / % connections / client IPs)", rows,
        headers=["category", "paper", "measured", "note"])
    return ExperimentResult("table1", "Interception issuer categories",
                            rendered, {"rows": measured_rows})


@experiment("table2")
def run_table2(dataset: CampusDataset) -> ExperimentResult:
    """Table 2: chains / connections / client IPs per category.

    Each population is simulated at its own scale factor (hybrid is
    unscaled, the bulk categories shrink), so raw shares are meaningless;
    the comparison de-scales the measured counts back to full-population
    estimates before computing shares.
    """
    result = dataset.analyze()
    cat = result.categorized
    scale = dataset.scale
    scale_factor = {
        ChainCategory.NON_PUBLIC_ONLY: scale.nonpub_chain_scale,
        ChainCategory.HYBRID: 1.0,
        ChainCategory.INTERCEPTION: scale.interception_chain_scale,
        ChainCategory.PUBLIC_ONLY: scale.public_chain_scale,
    }
    descaled = {
        category: cat.chain_count(category) / factor
        for category, factor in scale_factor.items()
    }
    descaled_total = sum(descaled.values()) or 1.0
    paper_share = {
        ChainCategory.NON_PUBLIC_ONLY: PAPER.nonpub_chain_share_pct,
        ChainCategory.HYBRID: 100.0 * PAPER.hybrid_chains / PAPER.total_chains,
        ChainCategory.INTERCEPTION: PAPER.interception_chain_share_pct,
    }
    rows = []
    shares = {}
    for category in (ChainCategory.NON_PUBLIC_ONLY, ChainCategory.HYBRID,
                     ChainCategory.INTERCEPTION):
        share = 100.0 * descaled[category] / descaled_total
        shares[category.value] = share
        rows.append([
            category.value,
            f"{paper_share[category]:.2f}% of chains",
            f"{share:.2f}% of chains "
            f"({cat.chain_count(category):,} simulated chains, "
            f"{cat.connection_count(category):,} conns, "
            f"{cat.client_ip_count(category):,} IPs)",
            "share de-scaled to full population",
        ])
    rows.append(["hybrid chains (abs)", PAPER.hybrid_chains,
                 cat.chain_count(ChainCategory.HYBRID), "unscaled population"])
    rendered = comparison_table("Table 2 — certificate chain categories", rows)
    return ExperimentResult("table2", "Chain category statistics", rendered,
                            {"rows": cat.summary_rows(),
                             "descaled_shares": shares})


@experiment("table3")
def run_table3(dataset: CampusDataset) -> ExperimentResult:
    """Table 3: hybrid chain taxonomy + establishment rates."""
    result = dataset.analyze()
    report = result.hybrid
    measured = {(r["category"], r["subcategory"]): r["chains"]
                for r in report.table3_rows()}
    rows = [
        ["(1) complete path: Non-pub chained to Pub.",
         PAPER.hybrid_nonpub_to_pub,
         measured.get(("(1) Chain is a complete matched path",
                       "Non-pub. chained to Pub."), 0), ""],
        ["(1) complete path: Pub. chained to Prv.",
         PAPER.hybrid_pub_to_private,
         measured.get(("(1) Chain is a complete matched path",
                       "Pub. chained to Prv."), 0), ""],
        ["(2) contains complete matched path",
         PAPER.hybrid_contains_complete,
         measured.get(("(2) Chain contains a complete matched path", "-"), 0),
         ""],
        ["(3) no complete matched path",
         PAPER.hybrid_no_path,
         measured.get(("(3) No complete matched path", "-"), 0), ""],
        ["total hybrid chains", PAPER.hybrid_chains,
         measured.get(("Total", ""), 0), ""],
        ["established % (complete)",
         f"{PAPER.complete_establish_pct:.2f}%",
         f"{report.establishment_rate(HybridCategory.COMPLETE_PATH_ONLY):.2f}%",
         ""],
        ["established % (contains)",
         f"{PAPER.contains_establish_pct:.2f}%",
         f"{report.establishment_rate(HybridCategory.CONTAINS_COMPLETE_PATH):.2f}%",
         ""],
        ["established % (no path)",
         f"{PAPER.no_path_establish_pct:.2f}%",
         f"{report.establishment_rate(HybridCategory.NO_COMPLETE_PATH):.2f}%",
         ""],
    ]
    rendered = comparison_table("Table 3 — hybrid certificate chains", rows)
    return ExperimentResult("table3", "Hybrid chain taxonomy", rendered,
                            {"rows": report.table3_rows()})


@experiment("table4")
def run_table4(dataset: CampusDataset) -> ExperimentResult:
    """Table 4: port distribution per category."""
    result = dataset.analyze()
    cat = result.categorized
    paper_top = {
        "hybrid": (443, 97.21),
        "nonpub-single": (443, 46.29),
        "nonpub-multi": (443, 83.51),
        "interception": (8013, 35.40),
    }
    sections = []
    measured = {}
    hybrid_ports = cat.port_distribution(ChainCategory.HYBRID)
    single_ports = _ports(cat, ChainCategory.NON_PUBLIC_ONLY, single=True)
    multi_ports = _ports(cat, ChainCategory.NON_PUBLIC_ONLY, single=False)
    interception_ports = cat.port_distribution(ChainCategory.INTERCEPTION)
    for label, ports in (("hybrid", hybrid_ports),
                         ("nonpub-single", single_ports),
                         ("nonpub-multi", multi_ports),
                         ("interception", interception_ports)):
        total = sum(ports.values()) or 1
        top = ports.most_common(5)
        measured[label] = [(port, 100.0 * count / total)
                           for port, count in top]
        p_port, p_pct = paper_top[label]
        top_line = ", ".join(f"{port}:{100.0 * count / total:.1f}%"
                             for port, count in top)
        sections.append([label, f"top={p_port} ({p_pct:.2f}%)", top_line, ""])
    rendered = comparison_table(
        "Table 4 — port distribution per category (top-5 measured)", sections)
    return ExperimentResult("table4", "Port distribution", rendered,
                            {"ports": measured})


def _ports(cat, category, *, single: bool):
    return ChainUsage.port_totals(chain.usage for chain in cat.chains(category)
                                  if chain.is_single == single)


@experiment("table6")
def run_table6(dataset: CampusDataset) -> ExperimentResult:
    """Table 6: operators of non-public leaves on public trust anchors."""
    result = dataset.analyze()
    measured = {r["category"]: r["chains"]
                for r in result.hybrid.table6_rows()}
    rows = [
        ["Corporate", PAPER.anchored_corporate, measured.get("Corporate", 0),
         "Symantec, SignKorea and others"],
        ["Government", PAPER.anchored_government,
         measured.get("Government", 0), "Korea, Brazil, USA"],
    ]
    rendered = comparison_table(
        "Table 6 — non-public leaves chained to public trust anchors", rows)
    return ExperimentResult("table6", "Anchored non-public issuers", rendered,
                            {"rows": result.hybrid.table6_rows()})


@experiment("table7")
def run_table7(dataset: CampusDataset) -> ExperimentResult:
    """Table 7: taxonomy of chains without a complete matched path."""
    result = dataset.analyze()
    measured = {r["category"]: r["chains"]
                for r in result.hybrid.table7_rows()}
    rows = []
    for category, paper_count in PAPER.no_path_taxonomy:
        rows.append([category, paper_count, measured.get(category, 0), ""])
    missing = result.hybrid.missing_issuer_stats()
    rows.append(["public leaf w/o issuing intermediate",
                 PAPER.no_path_public_leaf_missing_issuer, missing["chains"],
                 f"{missing['established_pct']:.1f}% established"])
    rendered = comparison_table("Table 7 — no-complete-matched-path taxonomy",
                                rows)
    return ExperimentResult("table7", "No-path taxonomy", rendered,
                            {"rows": result.hybrid.table7_rows(),
                             "missing_issuer": missing})


@experiment("table8")
def run_table8(dataset: CampusDataset) -> ExperimentResult:
    """Table 8: matched paths in multi-certificate non-public/interception
    chains."""
    result = dataset.analyze()
    nonpub = result.multicert_path_stats(ChainCategory.NON_PUBLIC_ONLY)
    intercept = result.multicert_path_stats(ChainCategory.INTERCEPTION)
    rows = [
        ["non-public-only: is a matched path",
         f"{PAPER.nonpub_multi_matched_pct:.2f}%",
         f"{nonpub.is_matched_path_pct:.2f}%",
         f"{nonpub.is_matched_path}/{nonpub.chains} chains"],
        ["non-public-only: contains a matched path",
         PAPER.nonpub_multi_contains, nonpub.contains_matched_path,
         "count scales with population"],
        ["non-public-only: no matched path",
         PAPER.nonpub_multi_none, nonpub.no_matched_path, ""],
        ["interception: is a matched path",
         f"{PAPER.interception_multi_matched_pct:.2f}%",
         f"{intercept.is_matched_path_pct:.2f}%",
         f"{intercept.is_matched_path}/{intercept.chains} chains"],
        ["interception: contains a matched path",
         PAPER.interception_multi_contains, intercept.contains_matched_path,
         ""],
        ["interception: no matched path",
         PAPER.interception_multi_none, intercept.no_matched_path, ""],
    ]
    rendered = comparison_table(
        "Table 8 — matched paths in multi-certificate chains", rows)
    return ExperimentResult("table8", "Multi-certificate matched paths",
                            rendered,
                            {"nonpub": nonpub, "interception": intercept})
