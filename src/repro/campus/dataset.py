"""End-to-end campus dataset assembly.

``build_campus_dataset`` wires everything together the way the real campus
deployment was wired: a public Web PKI with CT logs → a server population
(public, non-public, hybrid, interception) → a year of TLS connections →
the Zeek monitoring tap.  The result carries both the logs (analyzer input)
and the generator's ground truth (test oracle).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from datetime import datetime
from typing import Dict, List, Optional

from ..core.crosssign import CrossSignDisclosures
from ..core.pipeline import AnalysisResult, ChainStructureAnalyzer
from ..ct.crtsh import CrtShIndex
from ..ct.log import CTLog
from ..tls.interception import InterceptionMiddlebox
from ..truststores.builtin import PublicPKI, build_public_pki
from ..truststores.registry import PublicDBRegistry
from ..zeek.format import write_zeek_log
from ..zeek.records import SSLRecord, X509Record
from ..zeek.tap import JoinedConnection, MonitoringTap, join_logs
from .hybrid_population import build_hybrid_population
from .population import (
    build_interception_population,
    build_nonpublic_population,
    build_public_population,
)
from .profiles import DEFAULT_SCALE, SMALL_SCALE, ScaleConfig, build_vendor_directory
from .spec import ChainSpec
from .workload import GENERATION_SHARDS, WorkloadGenerator

__all__ = ["CampusDataset", "GenerationContext", "build_campus_dataset",
           "build_generation_context", "cached_campus_dataset",
           "resolve_scale"]


def resolve_scale(scale: str | ScaleConfig) -> ScaleConfig:
    if isinstance(scale, ScaleConfig):
        return scale
    presets = {"small": SMALL_SCALE, "default": DEFAULT_SCALE}
    try:
        return presets[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(presets)}"
        ) from None


@dataclass
class CampusDataset:
    """Everything one simulated measurement campaign produced."""

    seed: int | str
    scale: ScaleConfig
    pki: PublicPKI
    registry: PublicDBRegistry
    ct_log: CTLog
    ct_index: CrtShIndex
    middleboxes: List[InterceptionMiddlebox]
    specs: List[ChainSpec]
    tap: MonitoringTap
    disclosures: CrossSignDisclosures
    _joined: Optional[List[JoinedConnection]] = None
    _analysis: Optional[AnalysisResult] = None

    # -- ground truth ------------------------------------------------------------

    def truth_by_chain_key(self) -> Dict[tuple, ChainSpec]:
        return {spec.key: spec for spec in self.specs}

    def specs_in_category(self, category_truth: str) -> List[ChainSpec]:
        return [s for s in self.specs if s.category_truth == category_truth]

    # -- analyzer input ------------------------------------------------------------

    @property
    def ssl_records(self) -> List[SSLRecord]:
        return self.tap.ssl_records

    @property
    def x509_records(self) -> List[X509Record]:
        return self.tap.x509_records

    def joined(self) -> List[JoinedConnection]:
        if self._joined is None:
            self._joined = join_logs(self.tap.ssl_records,
                                     self.tap.x509_records)
        return self._joined

    def analyzer(self) -> ChainStructureAnalyzer:
        return ChainStructureAnalyzer(
            self.registry,
            ct_index=self.ct_index,
            vendor_directory=build_vendor_directory(),
            disclosures=self.disclosures,
        )

    def analyze(self) -> AnalysisResult:
        """Run the full Figure 2 pipeline over the logs (cached)."""
        if self._analysis is None:
            self._analysis = self.analyzer().analyze_connections(self.joined())
        return self._analysis

    # -- log files --------------------------------------------------------------------

    def write_zeek_logs(self, directory: str, *,
                        open_time: Optional[datetime] = None
                        ) -> tuple[str, str]:
        """Write ``ssl.log`` and ``x509.log`` in Zeek ASCII format.

        ``open_time`` pins the ``#open``/``#close`` header stamps, making
        the files byte-reproducible (the parallel generation engine pins
        them to ``STUDY_START`` for its shard files).
        """
        os.makedirs(directory, exist_ok=True)
        ssl_path = os.path.join(directory, "ssl.log")
        x509_path = os.path.join(directory, "x509.log")
        write_zeek_log(ssl_path, "ssl", SSLRecord.FIELDS, SSLRecord.TYPES,
                       self.tap.ssl_rows(), open_time=open_time)
        write_zeek_log(x509_path, "x509", X509Record.FIELDS, X509Record.TYPES,
                       self.tap.x509_rows(), open_time=open_time)
        return ssl_path, x509_path

    @property
    def connection_count(self) -> int:
        return len(self.tap.ssl_records)

    @property
    def certificate_count(self) -> int:
        return len(self.tap.x509_records)


_DATASET_CACHE: Dict[tuple, CampusDataset] = {}


def generator_config_token(scale: ScaleConfig) -> str:
    """Cache-key token naming the generator code + configuration.

    Folds in the package version, the study-window shard layout, and
    every :class:`ScaleConfig` field — so a code change that alters what
    a (seed, scale) pair produces also changes the token and cannot serve
    a stale memoized dataset to the CLI or reportgen.
    """
    from .. import __version__

    fields = ",".join(f"{f.name}={getattr(scale, f.name)!r}"
                      for f in dataclasses.fields(scale))
    return f"v{__version__}:shards{GENERATION_SHARDS}:{fields}"


def cached_campus_dataset(seed: int | str = 0,
                          scale: str | ScaleConfig = "small") -> CampusDataset:
    """Process-wide cache for expensive dataset builds.

    Benchmarks and integration tests share one immutable-by-convention
    dataset per (seed, generator configuration); callers must not mutate
    it.  The key carries :func:`generator_config_token`, not just the
    scale's name, so version or config drift invalidates naturally.
    """
    resolved = resolve_scale(scale)
    key = (seed, generator_config_token(resolved))
    dataset = _DATASET_CACHE.get(key)
    if dataset is None:
        dataset = build_campus_dataset(seed=seed, scale=resolved)
        _DATASET_CACHE[key] = dataset
    return dataset


@dataclass
class GenerationContext:
    """Everything workers need to generate connections for (seed, scale).

    The expensive deterministic substrate of :func:`build_campus_dataset`
    — PKI, CT log/index, server populations, workload generator — without
    any connections simulated yet.  Parallel generation workers rebuild
    this per process from just (seed, scale) and then simulate only their
    own study-window shards.
    """

    seed: int | str
    scale: ScaleConfig
    pki: PublicPKI
    registry: PublicDBRegistry
    ct_log: CTLog
    ct_index: CrtShIndex
    middleboxes: List[InterceptionMiddlebox]
    specs: List[ChainSpec]
    generator: WorkloadGenerator


def build_generation_context(seed: int | str = 0,
                             scale: str | ScaleConfig = "small"
                             ) -> GenerationContext:
    """Build the deterministic pre-workload substrate for (seed, scale)."""
    scale = resolve_scale(scale)
    pki = build_public_pki(seed=seed)
    registry = pki.registry
    ct_log = CTLog(
        f"campus-ct-{seed}",
        accepted_roots=[ca.root.certificate for ca in pki.cas.values()],
    )

    specs: List[ChainSpec] = []
    specs.extend(build_public_population(pki, seed=seed, scale=scale,
                                         ct_log=ct_log))
    specs.extend(build_hybrid_population(
        pki, seed=seed, mean_connections=scale.conns_per_hybrid_chain,
        ct_log=ct_log))
    specs.extend(build_nonpublic_population(pki, seed=seed, scale=scale))
    interception_specs, middleboxes = build_interception_population(
        pki, seed=seed, scale=scale)
    specs.extend(interception_specs)

    return GenerationContext(
        seed=seed,
        scale=scale,
        pki=pki,
        registry=registry,
        ct_log=ct_log,
        ct_index=CrtShIndex([ct_log]),
        middleboxes=middleboxes,
        specs=specs,
        generator=WorkloadGenerator(registry, seed=seed, scale=scale),
    )


def build_campus_dataset(seed: int | str = 0,
                         scale: str | ScaleConfig = "small") -> CampusDataset:
    """Simulate one 12-month campus measurement campaign.

    ``scale`` is ``"small"`` (fast, for tests), ``"default"`` (benchmark
    fidelity), or a custom :class:`ScaleConfig`.  The same seed and scale
    always produce the identical dataset.
    """
    context = build_generation_context(seed=seed, scale=scale)
    tap = MonitoringTap()
    tap.observe_all(context.generator.generate(context.specs))
    return CampusDataset(
        seed=seed,
        scale=context.scale,
        pki=context.pki,
        registry=context.registry,
        ct_log=context.ct_log,
        ct_index=context.ct_index,
        middleboxes=context.middleboxes,
        specs=context.specs,
        tap=tap,
        disclosures=CrossSignDisclosures.from_pki(context.pki),
    )
