"""Where each per-layer metric is measured, and how it is derived.

:func:`install` wraps every layer boundary at the name its caller looks
up; :func:`per_layer_metrics` turns the driver's and the workers' totals
plus the run's public results into the metrics ``BENCHMARK.json`` lists.
Layers use the program's module names: ``generate`` (parallel generation,
the campus workload, the Zeek writer), ``ingest`` (the parallel engine
and worker, the columnar reader, the packed codec, the tap), ``analysis``
(the Figure-2 pipeline and the parallel enrichment engine), ``render``
(the experiments), ``resilience`` (journal, artifact and checkpoint
stores) and ``supervisor`` (pool dispatch).
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from .tracer import Totals, Tracer

__all__ = ["PER_LAYER", "REQUIRED", "MEMO_BOUNDS", "RECONCILE_TOLERANCE",
           "install", "per_layer_metrics", "reconcile", "missing_metrics"]

#: Every per-layer metric with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("generate.pool_wait_s", "s"),
    ("generate.context_s", "s"),
    ("generate.simulate_s", "s"),
    ("generate.encode_s", "s"),
    ("generate.write_s", "s"),
    ("generate.worker_other_s", "s"),
    ("generate.merge_s", "s"),
    ("generate.unit_skew", "ratio"),
    ("generate.rows", "count"),
    ("generate.bytes_written", "bytes"),
    ("ingest.pool_wait_s", "s"),
    ("ingest.read_s", "s"),
    ("ingest.fold_s", "s"),
    ("ingest.pack_s", "s"),
    ("ingest.worker_other_s", "s"),
    ("ingest.unpack_s", "s"),
    ("ingest.reconstruct_s", "s"),
    ("ingest.materialize_s", "s"),
    ("ingest.merge_s", "s"),
    ("ingest.payload_bytes", "bytes"),
    ("ingest.x509_rows_per_cert", "ratio"),
    ("ingest.reconstruct_hit_ratio", "ratio"),
    ("ingest.dn_parse_hit_ratio", "ratio"),
    ("ingest.unit_skew", "ratio"),
    ("ingest.rows", "count"),
    ("ingest.bytes_read", "bytes"),
    ("analysis.interception_s", "s"),
    ("analysis.ct_lookups_per_chain", "ratio"),
    ("analysis.enrichment_wait_s", "s"),
    ("analysis.enrichment_busy_s", "s"),
    ("analysis.reassemble_s", "s"),
    ("analysis.dga_s", "s"),
    ("analysis.structure_s", "s"),
    ("analysis.pair_match_hit_ratio", "ratio"),
    ("analysis.unit_skew", "ratio"),
    ("analysis.chains", "count"),
    ("render.tables_s", "s"),
    ("resilience.cold_s", "s"),
    ("resilience.resume_s", "s"),
    ("resilience.journal_write_s", "s"),
    ("resilience.journal_read_s", "s"),
    ("resilience.artifact_save_s", "s"),
    ("resilience.artifact_load_s", "s"),
    ("resilience.checkpoint_s", "s"),
    ("resilience.replayed_frac", "ratio"),
    ("resilience.bytes_written", "bytes"),
    ("supervisor.tasks", "count"),
    ("supervisor.incidents", "count"),
    ("supervisor.fallbacks", "count"),
    ("supervisor.pool_rebuilds", "count"),
    ("memo.reconstruct_distinct", "count"),
    ("memo.dn_parse_distinct", "count"),
    ("memo.pair_match_distinct", "count"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)

#: Spans and call sites that must record calls wherever their layer runs.
REQUIRED: Dict[str, Tuple[str, ...]] = {
    "generate": ("generate.pool_wait_s", "generate.context_s",
                 "generate.simulate_s", "generate.encode_s",
                 "generate.write_s", "generate.worker_other_s",
                 "generate.merge_s"),
    "ingest": ("ingest.pool_wait_s", "ingest.read_s", "ingest.fold_s",
               "ingest.pack_s", "ingest.worker_other_s", "ingest.unpack_s",
               "ingest.reconstruct_s", "ingest.materialize_s",
               "ingest.merge_s", "dn_parse"),
    "analysis_engine": ("analysis.interception_s",
                        "analysis.enrichment_wait_s",
                        "analysis.enrichment_busy_s",
                        "analysis.reassemble_s", "analysis.dga_s",
                        "analysis.structure_s", "ct_lookup", "pair_match"),
    "render": ("render.tables_s",),
    "resilience": ("resilience.journal_write_s", "resilience.journal_read_s",
                   "resilience.artifact_save_s", "resilience.artifact_load_s",
                   "resilience.checkpoint_s"),
}

#: Process-global memo capacities: certificate reconstructions, DN
#: parses, pair matches.  The paper's 743,993 certificates would
#: overflow the first.
MEMO_BOUNDS = {"memo.reconstruct_distinct": 131_072,
               "memo.dn_parse_distinct": 65_536,
               "memo.pair_match_distinct": 262_144}

#: Driver-side self times must sum to the traced wall clock within this
#: share of it (the remainder is the benchmark's own glue between calls).
RECONCILE_TOLERANCE = 0.02


def install(tracer: Tracer) -> None:
    """Wrap every measured function; call before any pool starts."""
    from repro.campus import dataset, workload
    from repro.core import dga, interception, matching, pipeline
    from repro.ct import crtsh
    from repro.experiments import base
    from repro.parallel import analysis, engine, generate, worker
    from repro.resilience import checkpoint, journal
    from repro.x509 import dn
    from repro.zeek import format as zeek_format, records

    span = tracer.span
    # generate
    span(generate, "generate_dataset", "generate.merge_s")
    span(generate, "run_supervised", "generate.pool_wait_s")
    tracer.task([generate], "process_generate_shard", "generate",
                "generate.worker_other_s")
    span(dataset, "build_generation_context", "generate.context_s")
    span(workload.WorkloadGenerator, "plan_for", "generate.context_s")
    tracer.span_iter(workload.WorkloadGenerator, "generate_shard",
                     "generate.simulate_s")
    span(generate, "ssl_record_from_connection", "generate.encode_s")
    span(generate, "x509_record_from_certificate", "generate.encode_s")
    span(records.SSLRecord, "to_row", "generate.encode_s")
    span(records.X509Record, "to_row", "generate.encode_s")
    span(zeek_format.ZeekLogWriter, "write_row", "generate.write_s")
    # ingest
    span(engine, "ingest_shards", "ingest.merge_s")
    span(engine, "run_supervised", "ingest.pool_wait_s")
    tracer.task([worker, engine], "process_shard", "ingest",
                "ingest.worker_other_s")
    span(worker, "read_zeek_log_columnar", "ingest.read_s")
    span(worker, "fold_ssl_segment", "ingest.fold_s")
    span(worker, "pack_shard_payload", "ingest.pack_s",
         on_result=lambda totals, payload: totals.add_counter(
             "ingest.payload_bytes", len(payload)))
    span(engine, "unpack_shard_payload", "ingest.unpack_s")
    span(engine, "reconstruct_certificate", "ingest.reconstruct_s",
         key=lambda record: record.fingerprint)
    span(engine, "materialize_chains", "ingest.materialize_s")
    tracer.count(dn.DistinguishedName, "parse", "dn_parse",
                 key=lambda cls, text: text)
    # analysis
    span(pipeline.ChainStructureAnalyzer, "analyze_chains",
         "analysis.reassemble_s")
    span(interception.InterceptionDetector, "detect",
         "analysis.interception_s")
    tracer.count(crtsh.CrtShIndex, "issuers_for_domain", "ct_lookup")
    span(analysis, "analyze_partitions", "analysis.enrichment_wait_s")
    tracer.task([analysis], "process_partition", "analysis",
                "analysis.enrichment_busy_s")
    span(dga.DGADetector, "detect", "analysis.dga_s")
    span(pipeline.AnalysisResult, "structure_of", "analysis.structure_s")
    tracer.count(matching, "match_pair", "pair_match",
                 key=lambda child, parent, *_: child.fingerprint
                 + parent.fingerprint)
    # render
    span(base, "run_experiment", "render.tables_s")
    # resilience
    span(journal.RunJournal, "record", "resilience.journal_write_s")
    span(journal.RunJournal, "completed", "resilience.journal_read_s")
    span(journal.RunJournal, "load_partial", "resilience.journal_read_s")
    span(checkpoint.ArtifactStore, "save", "resilience.artifact_save_s")
    span(checkpoint.ArtifactStore, "load", "resilience.artifact_load_s")
    span(checkpoint.CheckpointStore, "save", "resilience.checkpoint_s")
    span(checkpoint.CheckpointStore, "load", "resilience.checkpoint_s")


def _skew(durations: Optional[Sequence[float]]) -> float:
    """Slowest unit over the mean unit (0 when no unit ran)."""
    if not durations:
        return 0.0
    mean = statistics.fmean(durations)
    return max(durations) / mean if mean > 0 else 0.0


def _hit_ratio(totals: Totals, site: str) -> float:
    """1 − distinct inputs / calls (0 when the site was never called)."""
    calls = totals.calls.get(site, 0)
    if not calls:
        return 0.0
    return 1.0 - len(totals.distinct.get(site, ())) / calls


def reconcile(wall_s: float, driver_self_s: Dict[str, float]
              ) -> Tuple[float, bool]:
    """``(unaccounted seconds, within RECONCILE_TOLERANCE)`` for one
    traced run."""
    unaccounted = wall_s - sum(driver_self_s.values())
    return unaccounted, abs(unaccounted) <= RECONCILE_TOLERANCE * wall_s


def missing_metrics(layers: Sequence[str], totals: Totals) -> List[str]:
    """Required spans and sites of ``layers`` that recorded no call."""
    return [name for layer in layers for name in REQUIRED[layer]
            if not totals.calls.get(name)]


def per_layer_metrics(driver: Totals, workers: Totals, facts: dict
                      ) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric; 0 where its layer did not run.

    ``facts`` carries what the run's public results say: row, byte and
    chain counts, pass times, supervisor tallies, and the traced and
    untraced wall clocks.
    """
    both = Totals()
    both.merge(driver)
    both.merge(workers)
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for name in metrics:
        if name.endswith("_s") and name in both.self_s:
            metrics[name] = both.self_s[name]
    for kind in ("generate", "ingest", "analysis"):
        metrics[f"{kind}.unit_skew"] = _skew(both.units.get(kind))
    metrics["ingest.payload_bytes"] = both.counters.get(
        "ingest.payload_bytes", 0)
    metrics["ingest.reconstruct_hit_ratio"] = _hit_ratio(
        both, "ingest.reconstruct_s")
    metrics["ingest.dn_parse_hit_ratio"] = _hit_ratio(both, "dn_parse")
    metrics["analysis.pair_match_hit_ratio"] = _hit_ratio(both, "pair_match")
    chains = facts.get("chains", 0)
    metrics["analysis.chains"] = chains
    metrics["analysis.ct_lookups_per_chain"] = (
        both.calls.get("ct_lookup", 0) / chains if chains else 0.0)
    metrics["memo.reconstruct_distinct"] = len(
        both.distinct.get("ingest.reconstruct_s", ()))
    metrics["memo.dn_parse_distinct"] = len(both.distinct.get("dn_parse", ()))
    metrics["memo.pair_match_distinct"] = len(
        both.distinct.get("pair_match", ()))
    for name in ("generate.rows", "generate.bytes_written", "ingest.rows",
                 "ingest.bytes_read", "ingest.x509_rows_per_cert",
                 "resilience.cold_s", "resilience.resume_s",
                 "resilience.replayed_frac", "resilience.bytes_written"):
        metrics[name] = facts.get(name, 0.0)
    for name, value in facts.get("supervisor", {}).items():
        metrics[f"supervisor.{name}"] = value
    unaccounted, _ = reconcile(facts["traced_wall_s"], driver.self_s)
    metrics["trace.unaccounted_s"] = unaccounted
    metrics["trace.overhead_s"] = (facts["traced_wall_s"]
                                   - facts["untraced_wall_s"])
    return metrics
