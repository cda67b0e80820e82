"""Ablations for the design choices DESIGN.md calls out.

* ``ablation-crosssign`` — run issuer–subject matching with the cross-sign
  disclosure table disabled and count the chains that flip from matched to
  mismatched (the Appendix D.1 false-positive hazard).
* ``ablation-truststores`` — classify with Zeek's default view (Mozilla NSS
  only) vs the paper's expanded view (NSS+Apple+Microsoft+CCADB) and count
  the chains whose category changes.
* ``ablation-blindspot`` — inject same-name/wrong-key impersonation chains
  into the Table 5 corpus and measure how many the issuer–subject method
  misses (Appendix D.2's stated limitation).
"""

from __future__ import annotations

from ..campus.dataset import CampusDataset
from ..core.categorization import ChainCategorizer, ChainCategory
from ..core.classification import CertificateClassifier
from ..core.matching import analyze_structure
from .base import ExperimentResult, comparison_table, experiment

__all__ = ["run_ablation_crosssign", "run_ablation_truststores",
           "run_ablation_blindspot", "run_ablation_leafrule"]


@experiment("ablation-crosssign")
def run_ablation_crosssign(dataset: CampusDataset) -> ExperimentResult:
    result = dataset.analyze()
    flipped = 0
    affected_pairs = 0
    total = 0
    for category in (ChainCategory.HYBRID, ChainCategory.PUBLIC_ONLY):
        for chain in result.categorized.chains(category):
            if chain.length < 2:
                continue
            total += 1
            aware = analyze_structure(chain.certificates,
                                      disclosures=dataset.disclosures)
            naive = analyze_structure(chain.certificates, disclosures=None)
            if (aware.is_fully_matched and not naive.is_fully_matched):
                flipped += 1
            affected_pairs += sum(
                1 for a, b in zip(aware.pair_matches, naive.pair_matches)
                if a.matched and not b.matched)
    rows = [
        ["multi-cert chains examined", "-", total, "hybrid + public"],
        ["chains flipped matched→mismatched", "0 (method must avoid this)",
         flipped, "false positives without disclosures"],
        ["pairs repaired by disclosures", "-", affected_pairs, ""],
    ]
    rendered = comparison_table(
        "Ablation — issuer–subject matching without cross-sign disclosures",
        rows)
    return ExperimentResult("ablation-crosssign", "Cross-sign awareness",
                            rendered, {"flipped": flipped,
                                       "pairs": affected_pairs})


@experiment("ablation-truststores")
def run_ablation_truststores(dataset: CampusDataset) -> ExperimentResult:
    result = dataset.analyze()
    full = result.categorized
    nss_registry = dataset.registry.restricted_to(["Mozilla"],
                                                  include_ccadb=False)
    nss_categorizer = ChainCategorizer(
        CertificateClassifier(nss_registry),
        result.interception.issuer_name_keys)
    nss = nss_categorizer.categorize(result.chains.values())
    rows = []
    moved = 0
    for category in ChainCategory:
        full_count = full.chain_count(category)
        nss_count = nss.chain_count(category)
        moved += abs(full_count - nss_count)
        rows.append([f"{category.value} chains",
                     f"{full_count} (full registry)",
                     f"{nss_count} (NSS only)", ""])
    rows.append(["total reassignments", "0 if stores equivalent", moved // 2,
                 "chains changing category under NSS-only"])
    rendered = comparison_table(
        "Ablation — classification scope: NSS-only vs NSS+Apple+MS+CCADB",
        rows)
    return ExperimentResult("ablation-truststores", "Trust-store scope",
                            rendered, {"moved": moved // 2})


@experiment("ablation-blindspot")
def run_ablation_blindspot(dataset: CampusDataset) -> ExperimentResult:
    # The crypto-backed corpus (and ``cryptography``) loads on first use.
    from ..validation.compare import compare_validators
    from ..validation.corpus import build_validation_corpus

    corpus = build_validation_corpus(total=320, seed=dataset.seed,
                                     impersonated=16)
    result = compare_validators(corpus, disclosures=dataset.disclosures)
    missed = corpus.count_truth("impersonated")
    rows = [
        ["impersonated chains injected", "-", missed,
         "same names, wrong signing key"],
        ["issuer–subject broken count", "-", result.is_broken,
         "method cannot see the impersonations"],
        ["key–signature broken count", "-", result.ks_broken,
         "catches name-broken + impersonated"],
        ["disagreements", "-", result.disagreements,
         "the Appendix D.2 blind spot, quantified"],
    ]
    rendered = comparison_table(
        "Ablation — issuer–subject blind spot under key impersonation", rows)
    return ExperimentResult("ablation-blindspot", "Impersonation blind spot",
                            rendered, {"result": result, "injected": missed})


@experiment("ablation-leafrule")
def run_ablation_leafrule(dataset: CampusDataset) -> ExperimentResult:
    """Drop §4.2's valid-leaf requirement from complete-path detection.

    Without the rule, any matched run of CA certificates qualifies as a
    "complete matched path", collapsing Table 3's no-path group — e.g. the
    five nonpub-root-appended chains (a matched but leafless public
    sub-chain plus junk) migrate into the contains-complete group.
    """
    from ..core.hybrid import HybridAnalyzer, HybridCategory

    result = dataset.analyze()
    chains = result.categorized.chains(ChainCategory.HYBRID)
    classifier = result.classifier
    strict = HybridAnalyzer(classifier, dataset.disclosures).analyze(chains)
    relaxed = HybridAnalyzer(classifier, dataset.disclosures,
                             require_leaf=False).analyze(chains)
    rows = []
    moved = 0
    for category in HybridCategory:
        before = len(strict.by_category(category))
        after = len(relaxed.by_category(category))
        moved += abs(after - before)
        rows.append([category.value, f"{before} (paper rule)",
                     f"{after} (relaxed)", ""])
    rows.append(["chains changing group", "0 if rule were irrelevant",
                 moved // 2, ""])
    rendered = comparison_table(
        "Ablation — complete-path detection without the valid-leaf rule",
        rows)
    return ExperimentResult("ablation-leafrule", "Leaf-requirement rule",
                            rendered, {"moved": moved // 2})
