"""Extension experiments beyond the paper's tables and figures.

* ``section6-overhead`` — quantifies §6.1's (qualitative) claim that
  unnecessary certificates cost bandwidth and latency;
* ``extension-survey`` — implements §6.3's proposed future work: an
  IP-space-wide active scan joined with passive usage statistics;
* ``extension-issuers`` — the Appendix-F issuer pivot: who issues the
  non-public leaves and how concentrated each issuer population is.
"""

from __future__ import annotations

from ..campus.dataset import CampusDataset
from ..core.categorization import ChainCategory
from ..core.issuers import concentration_index, issuer_statistics
from ..core.overhead import estimate_overhead
from ..core.serverchains import ChainChangeKind, analyze_multi_chain_servers
from ..core.timeline import churn_summary, monthly_activity
from .base import ExperimentResult, comparison_table, experiment

__all__ = ["run_overhead", "run_survey_experiment", "run_issuers",
           "run_timeline", "run_multichain"]


@experiment("section6-overhead")
def run_overhead(dataset: CampusDataset) -> ExperimentResult:
    result = dataset.analyze()
    hybrid = result.categorized.chains(ChainCategory.HYBRID)
    report = estimate_overhead(hybrid, disclosures=dataset.disclosures)
    rows = [
        ["chains carrying unnecessary certificates",
         "70 (+ leading-leaf cases)", report.chains_with_unnecessary, ""],
        ["connections paying the overhead", "-",
         f"{report.connections_affected:,}", ""],
        ["mean wasted bytes per affected handshake", "-",
         f"{report.wasted_bytes_per_affected_handshake:,.0f} B", ""],
        ["total wasted transfer", "-",
         f"{report.wasted_kib_total:,.1f} KiB", "over the whole year"],
        ["handshakes pushed over initcwnd", "-",
         f"{report.extra_round_trips:,}",
         ">= +1 RTT each (RFC 6928 10-segment window)"],
    ]
    rendered = comparison_table(
        "§6.1 extension — cost of unnecessary certificates", rows)
    return ExperimentResult("section6-overhead", "Unnecessary-cert overhead",
                            rendered, {"report": report})


@experiment("extension-survey")
def run_survey_experiment(dataset: CampusDataset) -> ExperimentResult:
    # The active-scan simulator loads on first use.
    from ..scan.survey import run_survey

    report = run_survey(dataset, seed=dataset.seed)
    flat = report.share_by_mix(weighted=False)
    weighted = report.share_by_mix(weighted=True)
    rows = [
        ["endpoints scanned", "entire fleet", report.endpoints, ""],
    ]
    for mix in ("public", "non-public", "hybrid"):
        rows.append([
            f"{mix} chains",
            f"{flat.get(mix, 0.0):.1f}% of endpoints",
            f"{weighted.get(mix, 0.0):.1f}% of connections",
            "usage weighting changes the picture",
        ])
    rows.append(["broken chains (endpoint / usage view)",
                 f"{report.broken_share():.2f}%",
                 f"{report.broken_share(weighted=True):.2f}%", ""])
    rows.append(["chains with unnecessary certs (endpoint / usage)",
                 f"{report.unnecessary_share():.2f}%",
                 f"{report.unnecessary_share(weighted=True):.2f}%", ""])
    rendered = comparison_table(
        "§6.3 extension — usage-weighted full-fleet survey", rows,
        headers=["metric", "endpoint view", "usage-weighted view", "note"])
    return ExperimentResult("extension-survey", "Usage-weighted survey",
                            rendered, {"report": report})


@experiment("extension-issuers")
def run_issuers(dataset: CampusDataset) -> ExperimentResult:
    result = dataset.analyze()
    classifier = result.classifier
    rows = []
    measured = {}
    for category in (ChainCategory.NON_PUBLIC_ONLY, ChainCategory.HYBRID,
                     ChainCategory.INTERCEPTION):
        chains = result.categorized.chains(category)
        stats = issuer_statistics(chains, classifier, leaf_only=True)
        hhi = concentration_index(stats)
        top = stats[0] if stats else None
        rows.append([
            f"{category.value}: distinct leaf issuers", "-", len(stats), ""])
        rows.append([
            f"{category.value}: issuer concentration (HHI)", "-",
            f"{hhi:.4f}",
            "fragmented" if hhi < 0.05 else "concentrated"])
        if top is not None:
            rows.append([
                f"{category.value}: top leaf issuer", "-",
                f"{top.display_name} ({top.chains} chains)", ""])
        measured[category.value] = {"issuers": len(stats), "hhi": hhi}
    rendered = comparison_table(
        "Appendix F extension — issuer population statistics", rows)
    return ExperimentResult("extension-issuers", "Issuer statistics",
                            rendered, measured)


@experiment("extension-timeline")
def run_timeline(dataset: CampusDataset) -> ExperimentResult:
    """Monthly chain activity across the 12-month window (§3.1's span)."""
    result = dataset.analyze()
    chains = list(result.chains.values())
    buckets = monthly_activity(chains)
    churn = churn_summary(chains)
    rows = [["observation span", "2020-09 .. 2021-08",
             f"{buckets[0].label} .. {buckets[-1].label}" if buckets else "-",
             ""]]
    for bucket in buckets:
        rows.append([f"month {bucket.label}", "-",
                     f"{bucket.active_chains:,} active / "
                     f"{bucket.new_chains:,} new", ""])
    rows.append(["median chain active span", "-",
                 f"{churn['median_active_days']:.0f} days", ""])
    rows.append(["chains seen on one day only", "-",
                 f"{churn['one_shot_share_pct']:.1f}%", ""])
    rendered = comparison_table(
        "Extension — monthly chain activity over the measurement year", rows)
    return ExperimentResult("extension-timeline", "Monthly activity",
                            rendered, {"months": buckets, "churn": churn})


@experiment("extension-multichain")
def run_multichain(dataset: CampusDataset) -> ExperimentResult:
    """Servers presenting multiple distinct hybrid chains (§4.2's 19)."""
    result = dataset.analyze()
    hybrid = result.categorized.chains(ChainCategory.HYBRID)
    report = analyze_multi_chain_servers(hybrid,
                                         disclosures=dataset.disclosures)
    counts = report.change_counts()
    rows = [
        ["servers presenting multiple hybrid chains", 19,
         report.multi_chain_servers, ""],
        ["caused by leaf replacement", "factor (1)",
         counts.get(ChainChangeKind.LEAF_REPLACEMENT, 0), ""],
        ["caused by different unnecessary certificates", "factor (2)",
         counts.get(ChainChangeKind.DIFFERENT_UNNECESSARY, 0), ""],
        ["restructured / other", "-",
         counts.get(ChainChangeKind.RESTRUCTURED, 0), ""],
    ]
    rendered = comparison_table(
        "§4.2 extension — multi-chain servers and why their chains differ",
        rows)
    return ExperimentResult("extension-multichain", "Multi-chain servers",
                            rendered, {"report": report, "counts": counts})
