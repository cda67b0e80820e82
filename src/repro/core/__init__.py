"""The paper's contribution: the certificate chain structure analyzer.

The pipeline (Figure 2) is orchestrated by
:class:`~repro.core.pipeline.ChainStructureAnalyzer`; the submodules
implement its stages and the per-section analyses.
"""

from .categorization import CategorizedChains, ChainCategorizer, ChainCategory
from .chain import ChainUsage, ObservedChain, aggregate_chains
from .classification import CertificateClassifier, ChainClassProfile, IssuerClass
from .crosssign import CrossSignDisclosures, detect_cross_sign_candidates
from .dga import DGACluster, DGADetector, domain_template, looks_random
from .hybrid import (
    CellLabel,
    CompletePathKind,
    EntityKind,
    HybridAnalyzer,
    HybridCategory,
    HybridChainAnalysis,
    HybridReport,
    NoPathCategory,
    classify_entity,
)
from .interception import (
    CATEGORY_ORDER,
    InterceptionDetector,
    InterceptionIssuer,
    InterceptionReport,
    VendorDirectory,
)
from .lengths import LengthDistribution, exclude_outliers, length_distributions
from .matching import ChainStructure, PairMatch, Segment, analyze_structure, is_leaf_like
from .pipeline import (
    AnalysisResult,
    ChainStructureAnalyzer,
    MultiCertPathStats,
    SingleCertStats,
)
from .issuers import IssuerStats, concentration_index, issuer_statistics
from .overhead import (
    INITCWND_BYTES,
    OverheadReport,
    chain_wire_size,
    estimate_overhead,
    estimated_der_size,
)
from .report import format_count, format_pct, render_table, side_by_side
from .serverchains import (
    ChainChangeKind,
    MultiChainReport,
    ServerChainGroup,
    analyze_multi_chain_servers,
    classify_change,
    group_by_server,
)
from .timeline import MonthBucket, churn_summary, month_key, monthly_activity
from .structures import (
    GraphSummary,
    build_cooccurrence_graph,
    build_issuance_graph,
    complex_intermediates,
    complex_subgraph,
    infer_role,
    summarize_graph,
)

__all__ = [
    "AnalysisResult",
    "CATEGORY_ORDER",
    "CategorizedChains",
    "CellLabel",
    "ChainCategorizer",
    "ChainCategory",
    "ChainClassProfile",
    "ChainStructure",
    "ChainStructureAnalyzer",
    "ChainUsage",
    "CertificateClassifier",
    "CompletePathKind",
    "CrossSignDisclosures",
    "DGACluster",
    "DGADetector",
    "EntityKind",
    "GraphSummary",
    "INITCWND_BYTES",
    "IssuerStats",
    "OverheadReport",
    "HybridAnalyzer",
    "HybridCategory",
    "HybridChainAnalysis",
    "HybridReport",
    "InterceptionDetector",
    "InterceptionIssuer",
    "InterceptionReport",
    "IssuerClass",
    "LengthDistribution",
    "MultiCertPathStats",
    "NoPathCategory",
    "ObservedChain",
    "PairMatch",
    "Segment",
    "SingleCertStats",
    "VendorDirectory",
    "aggregate_chains",
    "analyze_structure",
    "build_cooccurrence_graph",
    "build_issuance_graph",
    "chain_wire_size",
    "classify_entity",
    "concentration_index",
    "complex_intermediates",
    "complex_subgraph",
    "detect_cross_sign_candidates",
    "domain_template",
    "estimate_overhead",
    "estimated_der_size",
    "exclude_outliers",
    "format_count",
    "format_pct",
    "infer_role",
    "is_leaf_like",
    "issuer_statistics",
    "length_distributions",
    "looks_random",
    "MonthBucket",
    "ChainChangeKind",
    "MultiChainReport",
    "ServerChainGroup",
    "analyze_multi_chain_servers",
    "classify_change",
    "group_by_server",
    "churn_summary",
    "month_key",
    "monthly_activity",
    "render_table",
    "side_by_side",
    "summarize_graph",
]
