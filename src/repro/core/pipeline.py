"""The certificate chain structure analyzer (Figure 2).

This is the paper's end-to-end pipeline: **certificate enrichment**
(public/non-public classification against trust stores, interception
identification via CT) feeding the **chain enrichment pipeline**
(categorisation → mismatch & cross-sign detection → complete/partial path
detection), producing every statistic reported in §3–§4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

from ..ct.crtsh import CrtShIndex
from ..faults.injector import FaultInjector
from ..faults.plan import active_plan
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.tracing import trace_span
from .. import __version__
from ..resilience.breaker import CircuitBreaker
from ..resilience.checkpoint import (ArtifactStore, CheckpointStore,
                                     input_fingerprint)
from ..truststores.registry import PublicDBRegistry
from ..zeek.tap import JoinedConnection
from .categorization import CategorizedChains, ChainCategorizer, ChainCategory
from .chain import ObservedChain, aggregate_chains
from .classification import CertificateClassifier
from .crosssign import CrossSignDisclosures
from .dga import DGACluster, DGADetector
from .hybrid import (HybridAnalyzer, HybridReport, pack_analysis,
                     unpack_analysis)
from .interception import InterceptionDetector, InterceptionReport, VendorDirectory
from .lengths import LengthDistribution, length_distributions
from .matching import ChainStructure, analyze_structure

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..parallel.engine import IngestResult
    from ..parallel.supervisor import SupervisedRun, SupervisorConfig

__all__ = ["ChainStructureAnalyzer", "AnalysisResult",
           "SingleCertStats", "MultiCertPathStats"]

log = get_logger(__name__)

#: Part of the artifact-cache key.  Bump whenever enrichment semantics
#: change (new category rules, structure derivation, hybrid taxonomy…) so
#: cached ``AnalysisResult`` pickles from older code read as stale.
_ANALYSIS_CODE_VERSION = "analysis-v2"


@dataclass(frozen=True, slots=True)
class SingleCertStats:
    """§4.3's single-certificate chain statistics for one category."""

    chains: int
    share_of_category: float
    self_signed_pct: float
    connections: int
    client_ips: int
    no_sni_connection_pct: float


@dataclass(frozen=True, slots=True)
class MultiCertPathStats:
    """Table 8's matched-path statistics for multi-certificate chains."""

    chains: int
    is_matched_path: int
    contains_matched_path: int
    no_matched_path: int

    @property
    def is_matched_path_pct(self) -> float:
        if self.chains == 0:
            return 0.0
        return 100.0 * self.is_matched_path / self.chains


@dataclass
class AnalysisResult:
    """Everything the analyzer derives from one log corpus."""

    chains: Dict[tuple[str, ...], ObservedChain]
    categorized: CategorizedChains
    interception: InterceptionReport
    hybrid: HybridReport
    dga_clusters: List[DGACluster]
    classifier: CertificateClassifier
    disclosures: Optional[CrossSignDisclosures]
    #: How the enrichment engine's supervised dispatch went; ``None`` when
    #: the stages ran serially or came from the artifact or checkpoint
    #: store.
    supervisor: Optional["SupervisedRun"] = None
    _structure_cache: Dict[tuple[str, ...], ChainStructure] = field(
        default_factory=dict)

    # -- structure access -------------------------------------------------------

    def structure_of(self, chain: ObservedChain, *,
                     require_leaf: bool = False) -> ChainStructure:
        cache_key = chain.key + (("L",) if require_leaf else ("N",))
        cached = self._structure_cache.get(cache_key)
        if cached is not None:
            instruments.STRUCTURE_CACHE_HIT.inc()
            return cached
        instruments.STRUCTURE_CACHE_MISS.inc()
        cached = analyze_structure(chain.certificates,
                                   disclosures=self.disclosures,
                                   require_leaf=require_leaf)
        self._structure_cache[cache_key] = cached
        return cached

    # -- §4.1 -------------------------------------------------------------------

    def length_distributions(self) -> Dict[ChainCategory, LengthDistribution]:
        return length_distributions(self.categorized)

    # -- §4.3 -------------------------------------------------------------------

    def single_cert_stats(self, category: ChainCategory) -> SingleCertStats:
        chains = self.categorized.chains(category)
        singles = [c for c in chains if c.is_single]
        self_signed = sum(1 for c in singles if c.is_single_self_signed)
        connections = sum(c.usage.connections for c in singles)
        no_sni = sum(c.usage.connections - c.usage.sni_present for c in singles)
        clients = set().union(*(c.usage.client_ips for c in singles))
        return SingleCertStats(
            chains=len(singles),
            share_of_category=100.0 * len(singles) / len(chains) if chains else 0.0,
            self_signed_pct=100.0 * self_signed / len(singles) if singles else 0.0,
            connections=connections,
            client_ips=len(clients),
            no_sni_connection_pct=100.0 * no_sni / connections if connections else 0.0,
        )

    def multicert_path_stats(self, category: ChainCategory) -> MultiCertPathStats:
        chains = [c for c in self.categorized.chains(category) if c.length > 1]
        is_path = contains = none = 0
        for chain in chains:
            structure = self.structure_of(chain, require_leaf=False)
            if structure.is_fully_matched:
                is_path += 1
            elif any(s.length >= 2 for s in structure.segments):
                contains += 1
            else:
                none += 1
        return MultiCertPathStats(
            chains=len(chains),
            is_matched_path=is_path,
            contains_matched_path=contains,
            no_matched_path=none,
        )

    # -- convenience -------------------------------------------------------------

    def establishment_pct(self, category: ChainCategory) -> float:
        chains = self.categorized.chains(category)
        connections = sum(c.usage.connections for c in chains)
        established = sum(c.usage.established for c in chains)
        return 100.0 * established / connections if connections else 0.0


class ChainStructureAnalyzer:
    """Figure 2's full pipeline, from joined log rows to AnalysisResult.

    Resilience hooks:

    * CT lookups inside interception detection run through ``ct_breaker``
      (and ``faults``, defaulting to the ambient fault plan) — an outage
      produces the degraded ``ct_unavailable`` verdict instead of a crash;
    * ``analyze_chains(..., checkpoint=..., resume=True)`` persists each
      stage's output to a :class:`CheckpointStore` and, on resume, serves
      completed stages from disk when the input fingerprint still matches,
      so a run killed in stage 3 does not redo stages 1–2.
    """

    def __init__(self, registry: PublicDBRegistry, *,
                 ct_index: Optional[CrtShIndex] = None,
                 vendor_directory: Optional[VendorDirectory] = None,
                 disclosures: Optional[CrossSignDisclosures] = None,
                 ct_breaker: Optional[CircuitBreaker] = None,
                 faults: Optional[FaultInjector] = None):
        self.registry = registry
        self.ct_index = ct_index
        self.vendor_directory = vendor_directory
        self.disclosures = disclosures
        self.ct_breaker = ct_breaker or CircuitBreaker(name="ct")
        if faults is None:
            plan = active_plan()
            faults = FaultInjector(plan) if plan.any() else None
        self.faults = faults

    def analyze_connections(self, connections: Iterable[JoinedConnection],
                            *, checkpoint: Optional[CheckpointStore] = None,
                            resume: bool = False,
                            jobs: Optional[int] = None,
                            artifacts: Optional[ArtifactStore] = None,
                            supervise: Optional["SupervisorConfig"] = None,
                            ) -> AnalysisResult:
        return self.analyze_chains(aggregate_chains(connections),
                                   checkpoint=checkpoint, resume=resume,
                                   jobs=jobs, artifacts=artifacts,
                                   supervise=supervise)

    def analyze_ingest(self, ingest: "IngestResult",
                       *, checkpoint: Optional[CheckpointStore] = None,
                       resume: bool = False,
                       jobs: Optional[int] = None,
                       artifacts: Optional[ArtifactStore] = None,
                       supervise: Optional["SupervisorConfig"] = None,
                       ) -> AnalysisResult:
        """Analyze the merged chain map of a (parallel) sharded ingest.

        The engine's merge already produced the same chain map a serial
        pass yields, so the checkpoint fingerprint — derived from the
        sorted chain keys and usage counts — matches across ``--jobs``
        values and a resume works regardless of the worker count that
        wrote the checkpoint.
        """
        return self.analyze_chains(ingest.chains,
                                   checkpoint=checkpoint, resume=resume,
                                   jobs=jobs, artifacts=artifacts,
                                   supervise=supervise)

    def _fingerprint(self, chains: Dict[tuple[str, ...], ObservedChain]
                     ) -> str:
        """Identity of this run's input + configuration, for checkpoints.

        The version tag changes with what the stages persist (the
        ``enrichment`` checkpoint holds the engine's merged maps), so a
        resume never loads a stage of another layout.
        """
        parts: List[object] = [
            "analyzer-v3",
            type(self.registry).__name__,
            self.ct_index is not None,
            self.vendor_directory is not None,
            self.disclosures is not None,
        ]
        for key in sorted(chains):
            usage = chains[key].usage
            parts.append((key, usage.connections, usage.established,
                          usage.sni_present))
        return input_fingerprint(parts)

    def _artifact_fingerprint(self, fingerprint: str) -> str:
        """Content address of one run's whole ``AnalysisResult``.

        Chain-map identity + analyzer configuration (both folded into
        ``fingerprint``) + the analysis code version + the package
        version.  ``jobs`` is deliberately absent: the parallel engine is
        byte-identical to a serial pass, so a warm artifact serves any
        worker count.
        """
        return input_fingerprint([
            "analysis-artifact", _ANALYSIS_CODE_VERSION, __version__,
            fingerprint,
        ])

    def _dehydrate(self, result: AnalysisResult) -> dict:
        """The artifact payload: derived state only.

        Certificates, chains, and the classifier cache are reproducible
        from the caller's chain map, and unpickling them costs about as
        much as recomputing the analysis — so the artifact stores the
        *decisions* (category per chain, hybrid verdicts, cluster
        membership) keyed by chain key, and :meth:`_rehydrate` reattaches
        them to live objects.  Table 8's structures are not among them:
        ``structure_of`` computes each on first use, on every path.
        """
        categories = {}
        for category in ChainCategory:
            for chain in result.categorized.chains(category):
                categories[chain.key] = category
        return {
            "categories": categories,
            "hybrid": [pack_analysis(analysis)
                       for analysis in result.hybrid.analyses],
            # Small on its own (issuers + name keys + chain keys), and
            # degraded_chains already holds keys, not chains.
            "interception": result.interception,
            "dga": [(cluster.template,
                     [chain.key for chain in cluster.chains])
                    for cluster in result.dga_clusters],
        }

    def _rehydrate(self, chains: Dict[tuple[str, ...], ObservedChain],
                   state: dict) -> Optional[AnalysisResult]:
        """Reassemble a cached analysis against the live chain map.

        Returns ``None`` when the payload does not fit ``chains`` (a
        truncated or malformed artifact) so the caller recomputes and
        overwrites instead of failing the run.
        """
        try:
            categories = state["categories"]
            categorized = CategorizedChains()
            for key, chain in chains.items():
                categorized.add(categories[key], chain)
            analyses = [unpack_analysis(chains, packed)
                        for packed in state["hybrid"]]
            dga = [DGACluster(template=template,
                              chains=[chains[key] for key in keys])
                   for template, keys in state["dga"]]
            interception = state["interception"]
        except (KeyError, IndexError, TypeError, ValueError):
            log.warning("analysis artifact failed to rehydrate; recomputing")
            return None
        return AnalysisResult(
            chains=chains,
            categorized=categorized,
            interception=interception,
            hybrid=HybridReport(analyses=analyses),
            dga_clusters=dga,
            classifier=CertificateClassifier(self.registry),
            disclosures=self.disclosures,
        )

    def analyze_chains(self, chains: Dict[tuple[str, ...], ObservedChain],
                       *, checkpoint: Optional[CheckpointStore] = None,
                       resume: bool = False,
                       jobs: Optional[int] = None,
                       artifacts: Optional[ArtifactStore] = None,
                       supervise: Optional["SupervisorConfig"] = None,
                       ) -> AnalysisResult:
        """Run the Figure-2 pipeline over a merged chain map.

        ``jobs=None`` keeps the historical serial stage sequence
        (interception → categorize → hybrid → dga).  Any integer ``jobs``
        routes stages 2–3 through the parallel enrichment engine
        (:mod:`repro.parallel.analysis`).  Either way Table 8's
        structures are computed on first ``structure_of``, and the
        result is byte-identical between the two paths and at every
        ``jobs`` value.

        ``artifacts`` layers the content-addressed cache on top: when a
        stored ``AnalysisResult`` matches this input + configuration +
        code version, it is served whole from disk and no stage runs.
        """
        classifier = CertificateClassifier(self.registry)
        instruments.PIPELINE_CHAINS.inc(len(chains))
        fingerprint = (self._fingerprint(chains)
                       if (checkpoint is not None or artifacts is not None)
                       else "")
        if artifacts is not None:
            artifact_fp = self._artifact_fingerprint(fingerprint)
            hit, state = artifacts.load("analysis", artifact_fp)
            if hit:
                cached = self._rehydrate(chains, state)
                if cached is not None:
                    log.info("analysis served from artifact cache",
                             extra=kv(chains=len(chains)))
                    return cached

        def staged(name: str, compute):
            """Serve a stage from the checkpoint on resume, else compute
            (and persist when checkpointing)."""
            if checkpoint is not None and resume:
                hit, payload = checkpoint.load(name, fingerprint)
                if hit:
                    log.info("stage served from checkpoint",
                             extra=kv(stage=name))
                    return payload
            value = compute()
            if checkpoint is not None:
                checkpoint.save(name, fingerprint, value)
            return value

        dispatch: Optional["SupervisedRun"] = None
        with trace_span("analyze_chains", chains=len(chains)):
            # Stage 1 — certificate enrichment: interception identification.
            with trace_span("enrich_interception"):
                def run_interception() -> InterceptionReport:
                    if self.ct_index is None:
                        return InterceptionReport()
                    detector = InterceptionDetector(
                        classifier, self.ct_index, self.vendor_directory,
                        breaker=self.ct_breaker, faults=self.faults)
                    return detector.detect(chains.values())
                interception = staged("interception", run_interception)

            if jobs is None:
                # Stage 2 — chain categorisation (serial).
                with trace_span("categorize", chains=len(chains)):
                    def run_categorize() -> CategorizedChains:
                        categorizer = ChainCategorizer(
                            classifier, interception.issuer_name_keys)
                        result = categorizer.categorize(chains.values())
                        for category in ChainCategory:
                            instruments.PIPELINE_CATEGORY_CHAINS.inc(
                                result.chain_count(category),
                                category=category.value)
                        return result
                    categorized = staged("categorize", run_categorize)

                # Stage 3 — mismatch/cross-sign + path detection on hybrids.
                hybrid_chains = categorized.chains(ChainCategory.HYBRID)
                with trace_span("hybrid_analysis", chains=len(hybrid_chains)):
                    def run_hybrid() -> HybridReport:
                        hybrid_analyzer = HybridAnalyzer(classifier,
                                                         self.disclosures)
                        return hybrid_analyzer.analyze(hybrid_chains)
                    hybrid = staged("hybrid", run_hybrid)
            else:
                # Stages 2+3 — sharded chain enrichment: categorisation
                # and hybrid analysis fan out across partitions; the
                # merge is byte-identical to the serial stages above at
                # any jobs value.
                from ..parallel.analysis import analyze_partitions
                with trace_span("enrichment", chains=len(chains), jobs=jobs):
                    def run_enrichment():
                        nonlocal dispatch
                        enriched = analyze_partitions(
                            chains, registry=self.registry,
                            disclosures=self.disclosures,
                            interception_keys=frozenset(
                                interception.issuer_name_keys),
                            jobs=jobs, supervise=supervise)
                        # The dispatch's results repeat every partial the
                        # merged maps were built from: the result reports
                        # it, the checkpoint does not keep it.
                        dispatch = enriched.supervisor
                        return replace(enriched, supervisor=None)
                    enriched = staged("enrichment", run_enrichment)

                # Reassemble in the chain map's insertion order so list
                # and Counter orderings match the serial pass exactly.
                # A chain whose partition was dropped by the supervisor
                # (quarantined with in-driver fallback disabled) has no
                # category — skip it loudly rather than KeyError the run.
                categorized = CategorizedChains()
                dropped = 0
                for key, chain in chains.items():
                    category = enriched.categories.get(key)
                    if category is None:
                        dropped += 1
                        continue
                    categorized.add(category, chain)
                if dropped:
                    log.warning(
                        "chains lost to dropped enrichment partitions",
                        extra=kv(dropped=dropped, total=len(chains)))
                for category in ChainCategory:
                    instruments.PIPELINE_CATEGORY_CHAINS.inc(
                        categorized.chain_count(category),
                        category=category.value)
                classifier.preload(enriched.classes)
                hybrid_chains = categorized.chains(ChainCategory.HYBRID)
                # The partials hold derived state only: verdicts are
                # rebuilt against the driver's own chains, as on a warm
                # artifact load.
                hybrid = HybridReport(analyses=[
                    unpack_analysis(chains, enriched.hybrid_by_key[chain.key])
                    for chain in hybrid_chains])

            # Stage 4 — special populations.
            with trace_span("special_populations"):
                def run_dga() -> List[DGACluster]:
                    return DGADetector().detect(
                        categorized.chains(ChainCategory.NON_PUBLIC_ONLY))
                dga = staged("dga", run_dga)

        instruments.PIPELINE_RUNS.inc()
        log.debug("pipeline run complete", extra=kv(
            chains=len(chains),
            flagged_interception=len(interception.flagged_chains),
            hybrid=len(hybrid_chains), dga_clusters=len(dga)))
        result = AnalysisResult(
            chains=chains,
            categorized=categorized,
            interception=interception,
            hybrid=hybrid,
            dga_clusters=dga,
            classifier=classifier,
            disclosures=self.disclosures,
            supervisor=dispatch,
        )
        if artifacts is not None:
            artifacts.save("analysis", artifact_fp, self._dehydrate(result))
        return result
