"""Parallel chain enrichment: partition the chain map, fan out, merge.

The Figure-2 enrichment stages after interception — certificate
classification, chain categorisation and hybrid analysis — are
embarrassingly parallel: each chain's verdicts depend only on the chain
itself, the trust-store registry, the cross-sign disclosures, and the
(already computed, driver-side) interception name keys.  This module
fans those stages out across worker processes and merges the partial
results into exactly what a serial pass produces.

**Determinism.**  The merged enrichment is byte-identical to a serial
pass at any ``jobs`` value:

* chains are assigned to partitions by a *stable* hash of the chain key
  (BLAKE2b, never Python's randomised ``hash``), and the partition count
  is independent of ``jobs`` — so the work split, and therefore every
  per-partition draw, is a pure function of the corpus;
* partials are merged strictly in partition-index order, and the driver
  reassembles category lists / the hybrid report by walking the original
  chain map in its insertion order — worker completion order never leaks
  into any output ordering;
* workers leave no direct metrics behind (their observations are
  captured into telemetry and restored away, then attached to the
  driver sink in partition order — see :mod:`repro.obs.sink`); the
  driver derives the canonical ``repro_analysis_*`` counters from the
  merged totals, so counter exports are identical at any ``jobs`` (only
  the worker gauge and timing histograms vary).

**Keys in, derived state out.**  A task carries its partition's chain
keys and the interception name keys, nothing else: the certificates
(fingerprint → certificate), the registry and the disclosures are the
dispatch's shared state (:func:`~repro.parallel.pool.shared_state`),
which reaches each worker once through the pool initializer — with
zero copies under the fork start method.  A partial carries decisions,
never object graphs: categories, issuer classes and
:func:`~repro.core.hybrid.pack_analysis` verdicts — the encodings the
analysis artifact stores.  The pool return, the run journal's partials
and the ``enrichment`` checkpoint therefore pickle bytes and small
tuples, and the driver reattaches them to its own chains
(:meth:`~repro.core.pipeline.ChainStructureAnalyzer.analyze_chains`).
No partition builds a ``ChainStructure`` beyond the with-leaf one each
hybrid verdict needs: Table 8's structures are computed on first
:meth:`~repro.core.pipeline.AnalysisResult.structure_of`, as on the
serial path.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.categorization import ChainCategorizer, ChainCategory
from ..core.chain import ObservedChain
from ..core.classification import CertificateClassifier, IssuerClass
from ..core.crosssign import CrossSignDisclosures
from ..core.hybrid import HybridAnalyzer, pack_analysis
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.sink import WorkerTelemetry, capture_telemetry, get_sink
from ..obs.tracing import trace_span
from ..resilience.checkpoint import input_fingerprint
from ..truststores.registry import PublicDBRegistry
from ..x509.certificate import Certificate
from .pool import clamp_jobs, shared_state
from .supervisor import (SupervisedRun, SupervisorConfig, resolve_config,
                         run_supervised)

__all__ = [
    "AnalysisTask",
    "AnalysisPartial",
    "EnrichedChains",
    "partition_index",
    "process_partition",
    "analyze_partitions",
    "effective_analysis_jobs",
]

log = get_logger(__name__)

#: Default partition count.  Deliberately *not* tied to ``jobs``: the
#: partitioning (and every count derived from it) must be a pure function
#: of the corpus so runs at different ``--jobs`` are byte-identical, and a
#: fixed fan-out keeps the merge path exercised even on one worker.
DEFAULT_PARTITIONS = 8


def partition_index(key: Tuple[str, ...], partitions: int) -> int:
    """Stable chain-key → partition assignment.

    BLAKE2b over the joined fingerprints, reduced mod ``partitions`` —
    identical across processes, platforms, and interpreter restarts
    (unlike ``hash()``, which is salted per process).
    """
    digest = hashlib.blake2b("\x1f".join(key).encode("utf-8"),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") % partitions


@dataclass(frozen=True, slots=True)
class AnalysisTask:
    """One partition to enrich, picklable for the pool: keys only."""

    index: int
    #: The partition's chain keys, in chain-map order.
    keys: Tuple[Tuple[str, ...], ...]
    interception_keys: FrozenSet[tuple]


@dataclass(frozen=True, slots=True)
class PartitionContext:
    """What every partition of one dispatch reads: the shared state."""

    certificates: Dict[str, Certificate]
    registry: PublicDBRegistry
    disclosures: Optional[CrossSignDisclosures]


@dataclass(slots=True)
class AnalysisPartial:
    """One partition's enrichment output — the unit the driver merges."""

    index: int
    #: (chain key, category) in this partition's chain order.
    categories: List[Tuple[Tuple[str, ...], ChainCategory]] = field(
        default_factory=list)
    #: :func:`~repro.core.hybrid.pack_analysis` verdicts, chain key first.
    hybrid: List[tuple] = field(default_factory=list)
    #: certificate fingerprint -> issuer class, for classifier preload.
    classes: Dict[str, IssuerClass] = field(default_factory=dict)
    seconds: float = 0.0
    #: What this worker observed, attached to the driver sink on merge.
    telemetry: Optional[WorkerTelemetry] = None


@dataclass
class EnrichedChains:
    """The merged, partition-order-independent enrichment of a chain map."""

    #: chain key -> category, covering every chain.
    categories: Dict[Tuple[str, ...], ChainCategory] = field(
        default_factory=dict)
    #: chain key -> packed hybrid verdict, covering exactly the hybrid
    #: chains.
    hybrid_by_key: Dict[Tuple[str, ...], tuple] = field(default_factory=dict)
    #: certificate fingerprint -> issuer class, for classifier preload.
    classes: Dict[str, IssuerClass] = field(default_factory=dict)
    partitions: int = 0
    effective_jobs: int = 1
    #: How the supervised dispatch went (incidents, retries, replays).
    supervisor: Optional[SupervisedRun] = None


def process_partition(task: AnalysisTask) -> AnalysisPartial:
    """Enrich one partition: classify, categorise, analyze hybrids.

    Runs inside a worker process with metrics disabled (the driver emits
    the canonical values from the merged result).  The chains are built
    from the shared certificates (no usage: no stage reads it); fresh
    classifier / categorizer / hybrid-analyzer instances per partition
    keep the work a pure function of the task and the shared state.
    Hybrid verdicts leave packed: the partial holds no certificate,
    chain or structure object.
    """
    start = time.perf_counter()
    context: PartitionContext = shared_state()
    certificates = context.certificates
    partial = AnalysisPartial(index=task.index)
    with capture_telemetry("analysis", task.index) as telemetry, \
            trace_span("enrich_partition", partition=task.index,
                       chains=len(task.keys)):
        classifier = CertificateClassifier(context.registry)
        categorizer = ChainCategorizer(classifier,
                                       set(task.interception_keys))
        hybrid_analyzer = HybridAnalyzer(classifier, context.disclosures)
        for key in task.keys:
            chain = ObservedChain(tuple(certificates[fp] for fp in key))
            category = categorizer.category(chain)
            partial.categories.append((chain.key, category))
            if category is ChainCategory.HYBRID:
                partial.hybrid.append(pack_analysis(
                    hybrid_analyzer.analyze_chain(chain)))
        partial.classes = classifier.cached_classes()
    partial.telemetry = telemetry
    partial.seconds = time.perf_counter() - start
    return partial


def effective_analysis_jobs(jobs: int,
                            partitions: int = DEFAULT_PARTITIONS) -> int:
    """The worker count :func:`analyze_partitions` will actually use.

    The same clamp the engine applies (CPU count, partition count) —
    exposed so benchmarks and gates can distinguish "asked for 4 workers"
    from "physically ran 4 workers" on small machines, where asserting a
    multi-job speedup would be asserting against the hardware.
    """
    return clamp_jobs(jobs, partitions)[1]


def _partition_fingerprint(task: AnalysisTask) -> str:
    """Journal identity of one partition: its chain keys + name keys.

    The shared state — certificates, registry, disclosures — is
    deliberately *not* fingerprinted (the keys name the certificates;
    the rest does not pickle stably); a journal directory therefore
    belongs to one analyzer configuration — the CLI namespaces
    per-engine subdirectories under ``--run-journal`` for exactly that
    reason.  The version tag changes with :class:`AnalysisPartial`'s
    fields, so a journal never replays a partial of another layout.
    """
    return input_fingerprint([
        "analysis-partition-v3", task.index, task.keys,
        tuple(sorted(task.interception_keys)),
    ])


def analyze_partitions(chains: Dict[Tuple[str, ...], ObservedChain], *,
                       registry: PublicDBRegistry,
                       disclosures: Optional[CrossSignDisclosures] = None,
                       interception_keys: Optional[frozenset] = None,
                       jobs: int = 1,
                       partitions: Optional[int] = None,
                       supervise: Optional[SupervisorConfig] = None
                       ) -> EnrichedChains:
    """Fan the chain map out over a process pool and merge the partials.

    ``jobs`` bounds the pool size only; it is further clamped to the CPU
    count and the partition count (``jobs=1`` runs inline — no pool, no
    pickling).  ``partitions`` defaults to :data:`DEFAULT_PARTITIONS` and
    must be held constant for outputs to be comparable byte-for-byte —
    it never follows ``jobs``.  Dispatch runs through the supervised
    executor (``supervise`` tunes deadlines/retries/journaling); the
    merge folds partials in partition-index order regardless of which
    attempt produced them.
    """
    if partitions is None:
        partitions = DEFAULT_PARTITIONS
    partitions = max(1, partitions)
    names = frozenset(interception_keys or ())
    buckets: List[List[Tuple[str, ...]]] = [[] for _ in range(partitions)]
    certificates: Dict[str, Certificate] = {}
    for key, chain in chains.items():
        buckets[partition_index(key, partitions)].append(key)
        for certificate in chain.certificates:
            certificates[certificate.fingerprint] = certificate
    tasks = [AnalysisTask(index=i, keys=tuple(bucket),
                          interception_keys=names)
             for i, bucket in enumerate(buckets)]
    effective = effective_analysis_jobs(jobs, partitions)
    from ..faults.plan import active_plan
    config = resolve_config(supervise, plan=active_plan())
    with trace_span("parallel_analysis", chains=len(chains),
                    partitions=partitions, jobs=effective):
        outcome = run_supervised(
            "analysis", tasks, process_partition, jobs=effective,
            config=config,
            task_ids=lambda task, i: f"analysis:{task.index:04d}",
            fingerprint_fn=_partition_fingerprint,
            shared=PartitionContext(certificates=certificates,
                                    registry=registry,
                                    disclosures=disclosures))
    partials = [p for p in outcome.results if p is not None]
    enriched = _reduce(partials, partitions=partitions,
                       effective_jobs=effective)
    enriched.supervisor = outcome
    log.debug("parallel analysis complete", extra=kv(
        chains=len(chains), partitions=partitions, jobs=effective,
        hybrid=len(enriched.hybrid_by_key)))
    return enriched


def _reduce(partials: List[AnalysisPartial], *, partitions: int,
            effective_jobs: int) -> EnrichedChains:
    """Merge partials in partition-index order; emit canonical metrics."""
    enriched = EnrichedChains(partitions=partitions,
                              effective_jobs=effective_jobs)
    sink = get_sink()
    for partial in sorted(partials, key=lambda p: p.index):
        sink.attach(partial.telemetry)
        for key, category in partial.categories:
            enriched.categories[key] = category
        for verdict in partial.hybrid:
            enriched.hybrid_by_key[verdict[0]] = verdict
        enriched.classes.update(partial.classes)
        instruments.ANALYSIS_PARTITIONS.inc(outcome="ok")
        instruments.ANALYSIS_PARTITION_SECONDS.observe(partial.seconds)
    instruments.ANALYSIS_WORKERS.set(effective_jobs)
    instruments.ANALYSIS_CHAINS.inc(len(enriched.categories),
                                    stage="categorize")
    instruments.ANALYSIS_CHAINS.inc(len(enriched.hybrid_by_key),
                                    stage="hybrid")
    return enriched
