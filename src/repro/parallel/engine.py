"""The reduce side of parallel ingestion: read X509 logs once, fold shards.

:func:`ingest_shards` is the engine's entry point.  It runs two
supervised dispatches (:func:`~repro.parallel.supervisor.run_supervised`;
``jobs=1`` runs inline — no pool, no pickling):

1. one :func:`~repro.parallel.worker.process_x509_log` task per
   *distinct* ``x509.log`` — the broadcast layout has exactly one, which
   runs inline — journaled under its own task id
   (``ingest:x509:NNNN``).  The driver decodes each returned X509
   section once and reconstructs each certificate once per pass;
2. one :func:`~repro.parallel.worker.process_shard` task per SSL shard.
   Each log's fingerprint → position map reaches the workers once, as
   the dispatch's shared state; shards return chain-only payloads that
   the driver folds straight into the merged chain map
   (:func:`~repro.core.packed.materialize_chains`), in shard order.

**Determinism.**  The merged output is byte-identical to a serial pass
over the same shards regardless of worker count or completion order:

* shard payloads are folded strictly in shard-index order, so the chain
  dict's insertion order — and every chain's port order inside the
  usage accumulators — reproduces the order a single process would have
  produced scanning shard 0, then 1, …;
* workers leave no direct metrics behind (their observations are
  captured into telemetry and restored away — see
  :mod:`repro.obs.sink`); the driver derives the canonical
  ``repro_zeek_*`` / ``repro_chain_*`` values from the merged totals
  and attaches each unit's telemetry in shard order — an X509 log's
  just before the first shard that joins it — so metric exports do not
  depend on ``--jobs`` either;
* fault-injection draws are keyed by (plan seed, line number) inside
  each log file, independent of which worker reads it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.chain import ObservedChain
from ..core.packed import (X509Section, materialize_chains,
                           unpack_shard_payload, unpack_x509_section)
from ..faults.plan import FaultPlan
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.sink import capture_telemetry, get_sink
from ..obs.tracing import trace_span
from ..resilience.checkpoint import input_fingerprint
from ..resilience.quarantine import Quarantine, QuarantinedRecord
from ..x509.certificate import Certificate
from ..zeek.columnar import load_numpy
from ..zeek.records import X509Record
from ..zeek.tap import reconstruct_certificate
from .pool import clamp_jobs
from .shards import ShardSpec
from .supervisor import (SupervisedRun, SupervisorConfig, SupervisorIncident,
                         resolve_config, run_supervised)
from .worker import (ShardPartial, ShardTask, X509Partial, X509Task,
                     process_shard, process_x509_log)

__all__ = ["IngestResult", "ingest_shards", "ingest_logs"]

log = get_logger(__name__)

#: Replayed value-for-value from worker telemetry (see ``TelemetrySink``).
_REPLAY = ("repro_faults_injected_total",)

#: Input size (each distinct X509 log once, plus every SSL shard) from
#: which an ingest reads vectorised.  numpy's import is a fixed cost and
#: the vectorised read's per-byte saving repays it at about this size
#: (docs/PERFORMANCE.md, "Import footprint"); a smaller ingest reads
#: per line, and no process imports numpy.
VECTORISE_MIN_BYTES = 8 * 2 ** 20


@dataclass
class IngestResult:
    """The merged outcome of one parallel (or inline) ingest."""

    chains: Dict[Tuple[str, ...], ObservedChain] = field(default_factory=dict)
    #: Distinct certificate fingerprints, first-seen order across shards.
    cert_fingerprints: List[str] = field(default_factory=list)
    ssl_rows: int = 0
    #: Rows read from the X509 logs, each distinct log counted once.
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
    #: How the supervised dispatches went (incidents, retries, replays),
    #: the X509 tasks' and the shards' added up.
    supervisor: Optional[SupervisedRun] = None


@dataclass
class _X509Log:
    """One distinct X509 log, decoded once in the driver."""

    partial: X509Partial
    section: X509Section
    #: fingerprint -> position in ``section.fingerprints`` (shared with
    #: the shard workers).
    positions: Dict[Optional[str], int]


def _stat(path: str) -> Tuple[int, int]:
    try:
        info = os.stat(path)
    except OSError:
        return -1, -1
    return info.st_size, info.st_mtime_ns


def _input_bytes(x509_paths: List[str], shard_list: List[ShardSpec]) -> int:
    """What an ingest reads: each distinct X509 log once, every shard."""
    return sum(max(_stat(path)[0], 0) for path in
               [*x509_paths, *(spec.ssl_path for spec in shard_list)])


def _x509_fingerprint(task: X509Task) -> str:
    """Journal identity of one X509 task: path, size, modification
    time, configuration."""
    return input_fingerprint([
        "ingest-x509-v1", task.x509_path, *_stat(task.x509_path), task.plan,
        task.tolerant,
    ])


def _shard_fingerprint(task: ShardTask) -> str:
    """Journal identity of one shard task: paths, sizes, modification
    times, configuration.

    The modification time catches an in-place edit that keeps a log's
    size (flipping ``T`` to ``F`` in a column), which would otherwise
    replay the stale partial on ``--resume``.  The X509 log's identity
    is part of it because the partial's chain keys are positions in
    that log's fingerprint list.
    """
    return input_fingerprint([
        "ingest-shard-v3", task.index, task.ssl_path, *_stat(task.ssl_path),
        task.x509_path, *_stat(task.x509_path), task.plan, task.tolerant,
    ])


def ingest_shards(shards: Iterable[ShardSpec], *,
                  jobs: Optional[int] = None,
                  plan: Optional[FaultPlan] = None,
                  quarantine: Optional[Quarantine] = None,
                  supervise: Optional[SupervisorConfig] = None
                  ) -> IngestResult:
    """Read each X509 log once, fold the shards, reduce to one chain map.

    ``jobs=None`` uses ``os.cpu_count()``; the effective count is capped
    at the CPU count (extra workers past the cores only add pool and
    pickling overhead — on a 1-CPU box ``--jobs 4`` used to run *slower*
    than serial for exactly that reason) and at the shard count (no idle
    workers).  The request and the clamped value are both recorded on the
    result (``requested_jobs`` / ``jobs``).  Passing a ``quarantine``
    switches every read to tolerant mode, and the captured records are
    replayed into it — each X509 log's once, before the records of the
    first shard that joins it, then every shard's in shard order — so
    the driver-side sink (and its metrics) end up exactly as a serial
    tolerant run's would.  Strict mode re-raises the first
    :class:`~repro.zeek.format.ZeekFormatError` in the caller.

    Both dispatches are supervised (``supervise`` tunes
    deadlines/retries/journaling): a worker crash or hang is retried on
    a rebuilt pool and, past the retry budget, the task is quarantined
    and recovered in-driver — the fold still runs in shard-index order,
    so the output is byte-identical to an undisturbed run.  A shard
    whose X509 task was dropped (poison with ``serial_fallback=False``)
    is dropped too, as an incident and a quarantine record: it is never
    joined against an empty fingerprint set.

    An input of at least :data:`VECTORISE_MIN_BYTES` is read vectorised,
    with numpy loaded here before the first dispatch so that forked
    workers inherit it; a smaller one is read per line, and no process
    loads numpy.  Chains, rows and quarantine records are the same
    either way; only the ``repro_columnar_rows_total`` and
    ``repro_columnar_runs_total`` split differs.
    """
    shard_list = sorted(shards, key=lambda spec: spec.index)
    requested, jobs = clamp_jobs(jobs, len(shard_list))
    tolerant = quarantine is not None
    paths = list(dict.fromkeys(spec.x509_path for spec in shard_list))
    config = resolve_config(supervise, plan=plan, quarantine=quarantine)
    vectorise = _input_bytes(paths, shard_list) >= VECTORISE_MIN_BYTES
    if vectorise:
        # Load numpy before any pool forks, so that workers inherit it
        # instead of importing it.
        load_numpy()
    with trace_span("parallel_ingest", shards=len(shard_list), jobs=jobs):
        x509_run = run_supervised(
            "ingest",
            [X509Task(index=i, x509_path=path, plan=plan, tolerant=tolerant,
                      vectorise=vectorise)
             for i, path in enumerate(paths)],
            process_x509_log, jobs=min(jobs, len(paths)), config=config,
            task_ids=lambda task, i: f"ingest:x509:{task.index:04d}",
            fingerprint_fn=_x509_fingerprint)
        logs = {path: _decode_x509(partial)
                for path, partial in zip(paths, x509_run.results)
                if partial is not None}
        tasks = [ShardTask(index=spec.index, ssl_path=spec.ssl_path,
                           x509_path=spec.x509_path, plan=plan,
                           tolerant=tolerant, vectorise=vectorise)
                 for spec in shard_list if spec.x509_path in logs]
        shard_run = run_supervised(
            "ingest", tasks, process_shard, jobs=jobs, config=config,
            task_ids=lambda task, i: f"ingest:{task.index:04d}",
            fingerprint_fn=_shard_fingerprint,
            shared={path: x509.positions for path, x509 in logs.items()})
    partials: Dict[int, ShardPartial] = {
        task.index: partial
        for task, partial in zip(tasks, shard_run.results)
        if partial is not None}
    outcome = _combine(x509_run, shard_run, shard_list, logs, partials,
                       quarantine=config.quarantine)
    result = _reduce(shard_list, logs, partials, jobs=jobs,
                     quarantine=quarantine)
    # The fold has consumed the transport bytes, and a journal has
    # already persisted them; the partials keep their tallies,
    # quarantine records and telemetry.
    for x509 in logs.values():
        x509.partial.section = b""
    for partial in partials.values():
        partial.payload = b""
    result.supervisor = outcome
    result.requested_jobs = requested
    log.debug("parallel ingest complete", extra=kv(
        shards=len(shard_list), x509_logs=len(paths), jobs=jobs,
        requested_jobs=requested, vectorise=vectorise,
        ssl_rows=result.ssl_rows, chains=len(result.chains)))
    return result


def ingest_logs(ssl_path: str, x509_path: str, *,
                jobs: Optional[int] = None,
                plan: Optional[FaultPlan] = None,
                quarantine: Optional[Quarantine] = None) -> IngestResult:
    """Ingest a single unsharded SSL/X509 pair through the same engine."""
    shard = ShardSpec(index=0, ssl_path=ssl_path, x509_path=x509_path)
    return ingest_shards([shard], jobs=jobs or 1, plan=plan,
                         quarantine=quarantine)


def _decode_x509(partial: X509Partial) -> _X509Log:
    section = unpack_x509_section(partial.section)
    return _X509Log(partial=partial, section=section,
                    positions={fp: i for i, fp
                               in enumerate(section.fingerprints)})


def _combine(x509_run: SupervisedRun, shard_run: SupervisedRun,
             shard_list: List[ShardSpec], logs: Dict[str, _X509Log],
             partials: Dict[int, ShardPartial], *,
             quarantine: Optional[Quarantine]) -> SupervisedRun:
    """Both dispatches as one run: the X509 tasks' results, then one
    per shard in shard order — ``None`` for a shard that was dropped,
    including a shard whose X509 task was: that one is recorded here,
    as an ``x509_dropped`` incident and a quarantine record."""
    combined = SupervisedRun(kind="ingest")
    for run in (x509_run, shard_run):
        combined.incidents += run.incidents
        combined.journal_replayed += run.journal_replayed
        combined.fallbacks += run.fallbacks
        combined.quarantined += run.quarantined
        combined.pool_rebuilds += run.pool_rebuilds
    combined.results = list(x509_run.results)
    for spec in shard_list:
        combined.results.append(partials.get(spec.index))
        if spec.x509_path in logs:
            continue
        task_id = f"ingest:{spec.index:04d}"
        detail = f"joins {spec.x509_path}, whose X509 task was dropped"
        combined.incidents.append(SupervisorIncident(
            kind="ingest", incident="x509_dropped", task_id=task_id,
            attempt=0, detail=detail))
        instruments.SUPERVISOR_INCIDENTS.inc(kind="ingest",
                                             incident="x509_dropped")
        instruments.SUPERVISOR_TASKS.inc(kind="ingest", outcome="dropped")
        log.warning("shard dropped with its X509 log",
                    extra=kv(task=task_id, x509=spec.x509_path))
        if quarantine is not None:
            quarantine.add(source="supervisor:ingest", line=spec.index,
                           reason="x509_dropped", detail=detail,
                           raw=task_id)
    return combined


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


def _fold(merged: Dict[tuple, ObservedChain], shard_list: List[ShardSpec],
          logs: Dict[str, _X509Log],
          partials: Dict[int, ShardPartial]) -> None:
    """Rebuild each log's certificates once, fold every shard's chain
    columns into ``merged`` in shard order, then settle each chain's
    id arrays.

    The rebuild (certificate reconstruction, DN parsing) churns the
    same memo caches a worker would have touched, so it runs under a
    *discarded* telemetry capture: metric exports must not depend on
    which process — or which ``--jobs`` — did it.
    """
    with capture_telemetry("materialize", 0):
        certificates = {path: _reconstruct_certificates(x509.section.columns)
                        for path, x509 in logs.items()}
        for spec in shard_list:
            partial = partials.get(spec.index)
            if partial is not None:
                materialize_chains(merged,
                                   unpack_shard_payload(partial.payload),
                                   logs[spec.x509_path].section.fingerprints,
                                   certificates[spec.x509_path])
        # One sort per chain, after the last shard.
        for chain in merged.values():
            chain.usage.settle()


def _replay(quarantine: Optional[Quarantine],
            records: List[QuarantinedRecord]) -> None:
    if quarantine is not None:
        for record in records:
            quarantine.add(source=record.source, line=record.line,
                           reason=record.reason, detail=record.detail,
                           raw=record.raw)


def _count_rows(rows: int, label: str) -> None:
    """One labelled inc per non-empty log, as a serial reader flushes."""
    if rows:
        instruments.ZEEK_ROWS.inc(rows, direction="read", path=label)
        instruments.PARALLEL_SHARD_ROWS.inc(rows, path=label)


def _reduce(shard_list: List[ShardSpec], logs: Dict[str, _X509Log],
            partials: Dict[int, ShardPartial], *, jobs: int,
            quarantine: Optional[Quarantine]) -> IngestResult:
    """Fold the shards in shard-index order; emit the canonical metrics.

    Each X509 log contributes once — telemetry, quarantine records,
    fingerprints, rows and counters — just before the first shard that
    joins it.
    """
    result = IngestResult(jobs=jobs, shard_count=len(partials),
                          quarantine=quarantine)
    merged = result.chains
    _fold(merged, shard_list, logs, partials)
    sink = get_sink()
    seen_fps = set()
    attached = set()
    for spec in shard_list:
        x509 = logs.get(spec.x509_path)
        if x509 is not None and spec.x509_path not in attached:
            attached.add(spec.x509_path)
            x509_partial = x509.partial
            sink.attach(x509_partial.telemetry, replay=_REPLAY)
            _replay(quarantine, x509_partial.quarantined)
            for fingerprint in x509.section.fingerprints:
                if fingerprint not in seen_fps:
                    seen_fps.add(fingerprint)
                    result.cert_fingerprints.append(fingerprint)
            result.x509_rows += x509_partial.rows
            _count_rows(x509_partial.rows, x509_partial.log_label)
            instruments.COLUMNAR_PAYLOAD_BYTES.inc(len(x509_partial.section))
            if x509_partial.stats is not None:
                x509_partial.stats.emit()
        partial = partials.get(spec.index)
        if partial is None:
            continue
        # The fault-kind split is the one canonical value only the
        # worker saw; everything else captured rides along create-only.
        sink.attach(partial.telemetry, replay=_REPLAY)
        _replay(quarantine, partial.quarantined)
        result.ssl_rows += partial.ssl_rows
        result.joined += partial.joined
        result.missing_certs += partial.missing_certs
        result.aggregated += partial.aggregated
        result.skipped_empty += partial.skipped_empty
        _count_rows(partial.ssl_rows, partial.ssl_log_label)
        instruments.COLUMNAR_PAYLOAD_BYTES.inc(len(partial.payload))
        if partial.stats is not None:
            partial.stats.emit()
        instruments.PARALLEL_SHARDS.inc(outcome="ok")
        instruments.PARALLEL_SHARD_SECONDS.observe(partial.seconds)
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
