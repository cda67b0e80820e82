"""End-to-end integration: simulated campus → Zeek files → analyzer →
ground-truth agreement, at small scale."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.campus import build_vendor_directory, cached_campus_dataset
from repro.campus.profiles import PAPER
from repro.core import (
    ChainCategory,
    ChainStructureAnalyzer,
)
from repro.zeek import SSLRecord, X509Record, join_logs, read_zeek_log


@pytest.fixture(scope="module")
def dataset():
    return cached_campus_dataset(seed=5, scale="small")


@pytest.fixture(scope="module")
def analysis(dataset):
    return dataset.analyze()


TRUTH_TO_CATEGORY = {
    "public": ChainCategory.PUBLIC_ONLY,
    "nonpub": ChainCategory.NON_PUBLIC_ONLY,
    "hybrid": ChainCategory.HYBRID,
    "interception": ChainCategory.INTERCEPTION,
}


class TestGroundTruthAgreement:
    def test_hybrid_category_perfect(self, dataset, analysis):
        """Every hybrid chain is recovered as hybrid — no leakage into
        other categories and nothing else mislabeled hybrid."""
        truth = dataset.truth_by_chain_key()
        hybrid = analysis.categorized.chains(ChainCategory.HYBRID)
        assert len(hybrid) == PAPER.hybrid_chains
        for chain in hybrid:
            assert truth[chain.key].category_truth == "hybrid"

    def test_no_false_interception(self, dataset, analysis):
        """Chains flagged interception are truly intercepted (precision 1.0;
        recall is limited by CT coverage, as the paper acknowledges)."""
        truth = dataset.truth_by_chain_key()
        for chain in analysis.categorized.chains(ChainCategory.INTERCEPTION):
            assert truth[chain.key].category_truth == "interception"

    def test_public_chains_never_misclassified_nonpublic(self, dataset,
                                                         analysis):
        truth = dataset.truth_by_chain_key()
        for chain in analysis.categorized.chains(
                ChainCategory.NON_PUBLIC_ONLY):
            assert truth[chain.key].category_truth in ("nonpub",
                                                       "interception")

    def test_undetected_interception_is_ct_blind(self, dataset, analysis):
        """Interception chains classified non-public are exactly those CT
        cannot see (domain absent from the logs) — Appendix B's limitation."""
        truth = dataset.truth_by_chain_key()
        for chain in analysis.categorized.chains(
                ChainCategory.NON_PUBLIC_ONLY):
            spec = truth[chain.key]
            if spec.category_truth != "interception":
                continue
            domains = set(chain.usage.sni_names())
            san = chain.certificates[0].extensions.subject_alt_name
            if san:
                domains.update(san.dns_names)
            recorded = [d for d in domains
                        if dataset.ct_index.issuers_for_domain(
                            d, overlapping=chain.certificates[0].validity)]
            assert not recorded, (
                f"chain for {spec.hostname} was detectable but missed")

    def test_all_80_vendors_recovered(self, analysis):
        assert analysis.interception.vendor_count() == \
            PAPER.interception_issuers


class TestZeekFileRoundTrip:
    def test_analysis_identical_through_files(self, dataset, analysis,
                                              tmp_path):
        """Writing Zeek ASCII logs and re-parsing them must not change a
        single analysis statistic."""
        ssl_path, x509_path = dataset.write_zeek_logs(str(tmp_path))
        _, ssl_rows = read_zeek_log(ssl_path)
        _, x509_rows = read_zeek_log(x509_path)
        ssl_records = [SSLRecord.from_row(r) for r in ssl_rows]
        x509_records = [X509Record.from_row(r) for r in x509_rows]
        joined = join_logs(ssl_records, x509_records, strict=True)

        analyzer = ChainStructureAnalyzer(
            dataset.registry, ct_index=dataset.ct_index,
            vendor_directory=build_vendor_directory(),
            disclosures=dataset.disclosures)
        reparsed = analyzer.analyze_connections(joined)

        for category in ChainCategory:
            assert (reparsed.categorized.chain_count(category)
                    == analysis.categorized.chain_count(category)), category
            assert (reparsed.categorized.connection_count(category)
                    == analysis.categorized.connection_count(category))
        assert (reparsed.hybrid.table3_rows()
                == analysis.hybrid.table3_rows())
        assert (reparsed.hybrid.table7_rows()
                == analysis.hybrid.table7_rows())
        assert reparsed.interception.vendor_count() == \
            analysis.interception.vendor_count()


class TestCrossSeedStability:
    """The calibrated shapes must hold for any seed, not just the default."""

    @pytest.fixture(scope="class")
    def other(self):
        return cached_campus_dataset(seed=1234, scale="small")

    def test_hybrid_taxonomy_seed_independent(self, other):
        result = other.analyze()
        rows = {(r["category"], r["subcategory"]): r["chains"]
                for r in result.hybrid.table3_rows()}
        assert rows[("Total", "")] == PAPER.hybrid_chains
        assert rows[("(3) No complete matched path", "-")] == \
            PAPER.hybrid_no_path

    def test_establishment_ordering_seed_independent(self, other):
        from repro.core.hybrid import HybridCategory
        report = other.analyze().hybrid
        assert (report.establishment_rate(HybridCategory.COMPLETE_PATH_ONLY)
                > report.establishment_rate(
                    HybridCategory.CONTAINS_COMPLETE_PATH)
                > report.establishment_rate(HybridCategory.NO_COMPLETE_PATH))

    def test_interception_vendors_seed_independent(self, other):
        assert other.analyze().interception.vendor_count() == \
            PAPER.interception_issuers
