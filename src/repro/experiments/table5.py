"""Table 5 experiment: issuer–subject vs key–signature validation.

Unlike the other experiments this one runs on the crypto-backed Appendix D
corpus rather than the campus dataset; the dataset argument only supplies
cross-sign disclosures (the paper consulted the same CA announcements).
"""

from __future__ import annotations

from ..campus.dataset import CampusDataset
from ..campus.profiles import PAPER
from .base import ExperimentResult, comparison_table, experiment

__all__ = ["run_table5", "DEFAULT_CORPUS_SIZE"]

#: 1/10 of the paper's 12,676 scanned chains; rare cells kept exact.
DEFAULT_CORPUS_SIZE = 1268


@experiment("table5")
def run_table5(dataset: CampusDataset, *,
               corpus_size: int = DEFAULT_CORPUS_SIZE) -> ExperimentResult:
    # The crypto-backed corpus (and ``cryptography``) loads on first use.
    from ..validation.compare import compare_validators
    from ..validation.corpus import build_validation_corpus

    corpus = build_validation_corpus(corpus_size, seed=dataset.seed)
    result = compare_validators(corpus, disclosures=dataset.disclosures)
    rows = [
        ["total chains", PAPER.validation_total_chains, result.total,
         f"1/{PAPER.validation_total_chains // corpus_size} scale"],
        ["single-certificate chains (both)", PAPER.validation_single,
         f"{result.is_single} / {result.ks_single}", ""],
        ["valid chains (IS / KS)",
         f"{PAPER.validation_is_valid} / {PAPER.validation_ks_valid}",
         f"{result.is_valid} / {result.ks_valid}",
         "IS counts unrecognized+malformed as valid"],
        ["broken chains (IS / KS)",
         f"{PAPER.validation_is_broken} / {PAPER.validation_ks_broken}",
         f"{result.is_broken} / {result.ks_broken}",
         "KS counts the ASN.1-error chain"],
        ["chains with unrecognized keys (KS)",
         PAPER.validation_unrecognized, result.ks_unrecognized, "exact cell"],
        ["valid-count gap (IS - KS)",
         PAPER.validation_is_valid - PAPER.validation_ks_valid,
         result.is_valid - result.ks_valid, ""],
        ["broken-count gap (KS - IS)",
         PAPER.validation_ks_broken - PAPER.validation_is_broken,
         result.ks_broken - result.is_broken, ""],
        ["mismatch-position agreement", "all broken chains align",
         f"{result.position_agreements}/{result.position_comparisons}", ""],
    ]
    rendered = comparison_table(
        "Table 5 — issuer–subject vs key–signature validation", rows)
    return ExperimentResult("table5", "Validation method comparison",
                            rendered, {"result": result})
