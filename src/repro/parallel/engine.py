"""The reduce side of parallel ingestion: fan out shards, merge partials.

:func:`ingest_shards` is the engine's entry point.  It dispatches one
:func:`~repro.parallel.worker.process_shard` call per shard across a
``ProcessPoolExecutor`` (``jobs=1`` runs inline — no pool, no pickling)
and folds the returned :class:`ShardAggregate` partials into a single
chain map with :meth:`ChainUsage.merge`.

**Determinism.**  The merged output is byte-identical to a serial pass
over the same shards regardless of worker count or completion order:

* partials are merged strictly in shard-index order, so the chain dict's
  insertion order — and every ``Counter``'s key order inside the usage
  accumulators — reproduces the order a single process would have
  produced scanning shard 0, then 1, …;
* workers leave no direct metrics behind (their observations are
  captured into telemetry and restored away — see
  :mod:`repro.obs.sink`); the driver derives the canonical
  ``repro_zeek_*`` / ``repro_chain_*`` values from the merged totals
  and attaches each shard's telemetry in shard order, so metric exports
  do not depend on ``--jobs`` either;
* fault-injection draws are keyed by (plan seed, line number) inside
  each shard file, independent of which worker reads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.chain import ObservedChain
from ..core.packed import (X509Section, materialize_chains,
                           unpack_shard_payload)
from ..faults.plan import FaultPlan
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.sink import capture_telemetry, get_sink
from ..obs.tracing import trace_span
from ..resilience.checkpoint import input_fingerprint
from ..resilience.quarantine import Quarantine
from ..x509.certificate import Certificate
from ..zeek.records import X509Record
from ..zeek.tap import reconstruct_certificate
from .pool import clamp_jobs
from .shards import ShardSpec
from .supervisor import (SupervisedRun, SupervisorConfig, resolve_config,
                         run_supervised)
from .worker import (ColumnarShardAggregate, ShardAggregate, ShardTask,
                     process_shard)

__all__ = ["IngestResult", "ingest_shards", "ingest_logs"]

log = get_logger(__name__)


@dataclass
class IngestResult:
    """The merged outcome of one parallel (or inline) ingest."""

    chains: Dict[Tuple[str, ...], ObservedChain] = field(default_factory=dict)
    #: Distinct certificate fingerprints, first-seen order across shards.
    cert_fingerprints: List[str] = field(default_factory=list)
    ssl_rows: int = 0
    x509_rows: int = 0
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0
    skipped_empty: int = 0
    #: The worker count actually used (requested, clamped to CPU count and
    #: shard count).
    jobs: int = 1
    #: The worker count the caller asked for, before clamping.
    requested_jobs: int = 1
    shard_count: int = 0
    quarantine: Optional[Quarantine] = None
    #: How the supervised dispatch went (incidents, retries, replays).
    supervisor: Optional[SupervisedRun] = None


def _shard_fingerprint(task: ShardTask) -> str:
    """Journal identity of one shard task: paths, sizes, modification
    times, configuration.

    The modification time catches an in-place edit that keeps a log's
    size (flipping ``T`` to ``F`` in a column), which would otherwise
    replay the stale partial on ``--resume``.
    """
    def stat(path: str) -> Tuple[int, int]:
        try:
            info = os.stat(path)
        except OSError:
            return -1, -1
        return info.st_size, info.st_mtime_ns
    return input_fingerprint([
        "ingest-shard-v2", task.index, task.ssl_path, *stat(task.ssl_path),
        task.x509_path, *stat(task.x509_path), task.plan, task.tolerant,
        task.compiled, task.columnar,
    ])


def ingest_shards(shards: Iterable[ShardSpec], *,
                  jobs: Optional[int] = None,
                  plan: Optional[FaultPlan] = None,
                  quarantine: Optional[Quarantine] = None,
                  compiled: bool = True,
                  columnar: bool = True,
                  supervise: Optional[SupervisorConfig] = None
                  ) -> IngestResult:
    """Map shards over a process pool and reduce to one chain map.

    ``jobs=None`` uses ``os.cpu_count()``; the effective count is capped
    at the CPU count (extra workers past the cores only add pool and
    pickling overhead — on a 1-CPU box ``--jobs 4`` used to run *slower*
    than serial for exactly that reason) and at the shard count (no idle
    workers).  The request and the clamped value are both recorded on the
    result (``requested_jobs`` / ``jobs``).  Passing a ``quarantine``
    switches every worker to tolerant reads, and the workers' captured
    records are replayed into it — in shard order — so the driver-side
    sink (and its metrics) end up exactly as a serial tolerant run's
    would.  Strict mode re-raises the first worker's
    :class:`~repro.zeek.format.ZeekFormatError` in the caller.

    Dispatch runs through :func:`~repro.parallel.supervisor.run_supervised`
    (``supervise`` tunes deadlines/retries/journaling): a worker crash or
    hang is retried on a rebuilt pool and, past the retry budget, the
    shard is quarantined and recovered in-driver — the merge still folds
    partials in shard-index order, so the output is byte-identical to an
    undisturbed run.

    ``columnar=True`` (the default) routes workers through the
    struct-of-arrays hot path: logs decode into typed columns, chain
    aggregation folds over arrays, and partials come home as packed
    column buffers that the driver materialises back into the legacy
    chain map before the same reduce (see :mod:`repro.core.packed`).
    ``columnar=False`` is the escape hatch back to the row-object
    workers (where ``compiled`` selects the row codec); outputs are
    byte-identical either way.
    """
    shard_list = sorted(shards, key=lambda spec: spec.index)
    requested, jobs = clamp_jobs(jobs, len(shard_list))
    tasks = [ShardTask(index=spec.index, ssl_path=spec.ssl_path,
                       x509_path=spec.x509_path, plan=plan,
                       tolerant=quarantine is not None, compiled=compiled,
                       columnar=columnar)
             for spec in shard_list]
    config = resolve_config(supervise, plan=plan, quarantine=quarantine)
    with trace_span("parallel_ingest", shards=len(tasks), jobs=jobs):
        outcome = run_supervised(
            "ingest", tasks, process_shard, jobs=jobs, config=config,
            task_ids=lambda task, i: f"ingest:{task.index:04d}",
            fingerprint_fn=_shard_fingerprint)
    aggregates = [a for a in outcome.results if a is not None]
    if columnar:
        aggregates = _materialize(aggregates)
    result = _reduce(aggregates, jobs=jobs, quarantine=quarantine)
    result.supervisor = outcome
    result.requested_jobs = requested
    log.debug("parallel ingest complete", extra=kv(
        shards=len(tasks), jobs=jobs, requested_jobs=requested,
        ssl_rows=result.ssl_rows, chains=len(result.chains)))
    return result


def ingest_logs(ssl_path: str, x509_path: str, *,
                jobs: Optional[int] = None,
                plan: Optional[FaultPlan] = None,
                quarantine: Optional[Quarantine] = None,
                compiled: bool = True,
                columnar: bool = True) -> IngestResult:
    """Ingest a single unsharded SSL/X509 pair through the same engine."""
    shard = ShardSpec(index=0, ssl_path=ssl_path, x509_path=x509_path)
    return ingest_shards([shard], jobs=jobs or 1, plan=plan,
                         quarantine=quarantine, compiled=compiled,
                         columnar=columnar)


def _materialize(aggregates: List[ColumnarShardAggregate]
                 ) -> List[ShardAggregate]:
    """Unpack columnar partials into the legacy aggregate shape, in
    shard order.

    Shards whose X509 sections are identical (they joined one broadcast
    ``x509.log``) share one section decode and one certificate map, so
    each distinct certificate is rebuilt once per ingest, not once per
    shard.

    The rebuild (certificate reconstruction, DN parsing) churns the same
    memo caches a worker would have touched, so it runs under a
    *discarded* telemetry capture: the compiled path's workers capture
    that churn away and never replay it, and metric exports must not
    depend on which path — or which ``--jobs`` — produced the result.
    The canonical ``repro_columnar_*`` metrics are then emitted from the
    worker-reported stats, outside the shield.
    """
    sections: Dict[bytes, X509Section] = {}
    certificate_maps: Dict[X509Section,
                           Dict[Optional[str], Certificate]] = {}
    materialized = []
    for aggregate in sorted(aggregates, key=lambda a: a.index):
        with capture_telemetry("materialize", aggregate.index):
            columns = unpack_shard_payload(aggregate.payload, sections)
            certificates = certificate_maps.get(columns.x509)
            if certificates is None:
                certificates = certificate_maps[columns.x509] = \
                    _reconstruct_certificates(columns.x509.columns)
            chains = materialize_chains(columns.chain_keys, columns.usages,
                                        certificates)
        instruments.COLUMNAR_PAYLOAD_BYTES.inc(len(aggregate.payload))
        for stats in (aggregate.x509_stats, aggregate.ssl_stats):
            if stats is not None:
                stats.emit()
        materialized.append(ShardAggregate(
            index=aggregate.index, chains=chains,
            quarantined=aggregate.quarantined,
            cert_fingerprints=columns.cert_fingerprints,
            ssl_rows=aggregate.ssl_rows, x509_rows=aggregate.x509_rows,
            ssl_log_label=aggregate.ssl_log_label,
            x509_log_label=aggregate.x509_log_label,
            joined=aggregate.joined, missing_certs=aggregate.missing_certs,
            aggregated=aggregate.aggregated,
            skipped_empty=aggregate.skipped_empty,
            seconds=aggregate.seconds, telemetry=aggregate.telemetry))
    return materialized


def _reconstruct_certificates(spec: Dict[str, list]
                              ) -> Dict[Optional[str], Certificate]:
    """Fingerprint -> certificate for one section's de-duplicated rows."""
    records = [
        X509Record(
            ts=ts, fingerprint=fingerprint, certificate_version=version,
            certificate_serial=serial, certificate_subject=subject,
            certificate_issuer=issuer,
            certificate_not_valid_before=not_before,
            certificate_not_valid_after=not_after,
            certificate_key_alg=key_alg, certificate_sig_alg=sig_alg,
            certificate_key_length=key_length,
            san_dns=tuple(san or ()), basic_constraints_ca=bc_ca,
            basic_constraints_path_len=bc_path_len)
        for ts, fingerprint, version, serial, subject, issuer,
        not_before, not_after, key_alg, sig_alg, key_length, san,
        bc_ca, bc_path_len in zip(
            spec["ts"], spec["fingerprint"],
            spec["certificate.version"], spec["certificate.serial"],
            spec["certificate.subject"], spec["certificate.issuer"],
            spec["certificate.not_valid_before"],
            spec["certificate.not_valid_after"],
            spec["certificate.key_alg"], spec["certificate.sig_alg"],
            spec["certificate.key_length"], spec["san.dns"],
            spec["basic_constraints.ca"],
            spec["basic_constraints.path_len"])]
    return {record.fingerprint: reconstruct_certificate(record)
            for record in records}


def _reduce(aggregates: List[ShardAggregate], *, jobs: int,
            quarantine: Optional[Quarantine]) -> IngestResult:
    """Merge partials in shard-index order; emit the canonical metrics."""
    result = IngestResult(jobs=jobs, shard_count=len(aggregates),
                          quarantine=quarantine)
    sink = get_sink()
    merged = result.chains
    seen_fps = set()
    for aggregate in sorted(aggregates, key=lambda a: a.index):
        # The fault-kind split is the one canonical value only the
        # worker saw; everything else captured rides along create-only.
        sink.attach(aggregate.telemetry,
                    replay=("repro_faults_injected_total",))
        for key, chain in aggregate.chains.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = chain
            else:
                existing.usage.merge(chain.usage)
        for fingerprint in aggregate.cert_fingerprints:
            if fingerprint not in seen_fps:
                seen_fps.add(fingerprint)
                result.cert_fingerprints.append(fingerprint)
        if quarantine is not None:
            for record in aggregate.quarantined:
                quarantine.add(source=record.source, line=record.line,
                               reason=record.reason, detail=record.detail,
                               raw=record.raw)
        result.ssl_rows += aggregate.ssl_rows
        result.x509_rows += aggregate.x509_rows
        result.joined += aggregate.joined
        result.missing_certs += aggregate.missing_certs
        result.aggregated += aggregate.aggregated
        result.skipped_empty += aggregate.skipped_empty
        # Canonical per-shard metrics, exactly as the serial readers
        # would have flushed them (one labelled inc per non-empty log).
        if aggregate.ssl_rows:
            instruments.ZEEK_ROWS.inc(aggregate.ssl_rows, direction="read",
                                      path=aggregate.ssl_log_label)
            instruments.PARALLEL_SHARD_ROWS.inc(
                aggregate.ssl_rows, path=aggregate.ssl_log_label)
        if aggregate.x509_rows:
            instruments.ZEEK_ROWS.inc(aggregate.x509_rows, direction="read",
                                      path=aggregate.x509_log_label)
            instruments.PARALLEL_SHARD_ROWS.inc(
                aggregate.x509_rows, path=aggregate.x509_log_label)
        instruments.PARALLEL_SHARDS.inc(outcome="ok")
        instruments.PARALLEL_SHARD_SECONDS.observe(aggregate.seconds)
    instruments.PARALLEL_WORKERS.set(jobs)
    instruments.ZEEK_JOIN_CONNECTIONS.inc(result.joined)
    instruments.ZEEK_JOIN_MISSING_CERTS.inc(result.missing_certs)
    instruments.CHAIN_CONN_AGGREGATED.inc(result.aggregated)
    instruments.CHAIN_CONN_SKIPPED.inc(result.skipped_empty)
    instruments.CHAIN_DISTINCT.inc(len(merged))
    if result.missing_certs:
        log.warning("join dropped unknown certificate references",
                    extra=kv(missing=result.missing_certs,
                             joined=result.joined))
    return result
