"""Parallel deterministic dataset generation: stage 0 goes wide.

:func:`generate_dataset` partitions the 12-month study window into the
workload's :data:`~repro.campus.workload.GENERATION_SHARDS` fixed
intervals and dispatches one :func:`process_generate_shard` call per
interval across a ``ProcessPoolExecutor`` (``jobs=1`` runs inline — no
pool, no pickling).  Each worker simulates its interval's handshakes and
writes its ``ssl-NN.log`` shard plus an x509 piece directly; the driver
concatenates the pieces into one broadcast ``x509.log`` — the layout the
ingestion engine's ``--shard-dir`` discovery pairs with zero
re-splitting, closing a fully parallel generate → ingest → analyze loop.
(Certificates are de-duplicated corpus-wide, so a shard's SSL rows may
reference certificates a *different* interval introduced — per-shard
x509 files would leave every ingestion worker's join incomplete, which
is why the certificate log is broadcast rather than paired 1:1.)

**Determinism.**  The shard files are byte-identical at any worker count,
and their in-order concatenation (data rows; every header is pinned via
``open_time``) is byte-identical to the serial
:func:`~repro.campus.dataset.build_campus_dataset` write-out:

* the interval layout is fixed — never derived from ``--jobs``;
* every (interval, spec) cell draws from its own derived RNG stream
  (``workload:{seed}:{shard}:{digest}``), so a cell's bytes depend on
  nothing generated before it;
* the x509 corpus-wide first-appearance dedup is reproduced from the
  per-spec plans alone: each worker maps every certificate to the first
  interval with a monitor-visible connection presenting it, and writes
  a certificate's row only in that interval, at its first presenting
  connection — exactly the piece (and order, and timestamp) the serial
  monitoring tap would have recorded it in — and because every header
  is pinned, stitching piece 0's header block onto the in-order data
  rows reproduces the serial ``x509.log`` byte for byte;
* workers leave no direct metrics behind (their observations are
  captured into telemetry and restored away — see
  :mod:`repro.obs.sink`); the driver replays canonical
  ``repro_zeek_rows_total`` / ``repro_generate_*`` values from the
  returned tallies and attaches each shard's telemetry in interval
  order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, List, Optional, Tuple

from ..campus.profiles import ScaleConfig
from ..campus.workload import GENERATION_SHARDS, STUDY_START
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.sink import WorkerTelemetry, capture_telemetry, get_sink
from ..obs.tracing import trace_span
from ..faults.plan import active_plan
from ..resilience.checkpoint import input_fingerprint
from ..zeek.format import ZeekLogWriter
from .pool import clamp_jobs
# ``ssl_record_from_connection`` is not called here (the cell kernel
# yields rows); ``perfbench/layers.py`` wraps it under this name.
from ..zeek.records import (SSLRecord, X509Record,  # noqa: F401
                            ssl_record_from_connection,
                            x509_record_from_certificate)
from .shards import ShardSpec
from .supervisor import (SupervisedRun, SupervisorConfig, resolve_config,
                         run_supervised)

__all__ = ["GenerateTask", "GenerateShardResult", "GenerateResult",
           "generate_dataset", "process_generate_shard"]

log = get_logger(__name__)


@dataclass(frozen=True, slots=True)
class GenerateTask:
    """Everything a worker needs, picklable for the process pool."""

    shard: int
    seed: int | str
    scale: ScaleConfig
    ssl_path: str
    x509_path: str
    open_time: datetime = STUDY_START


@dataclass(slots=True)
class GenerateShardResult:
    """One interval's write-out tallies — the unit the driver reduces."""

    shard: int
    ssl_path: str
    x509_path: str
    ssl_rows: int = 0
    x509_rows: int = 0
    seconds: float = 0.0
    #: ``(st_size, st_mtime_ns)`` of the shard and of the x509 piece as
    #: the worker left them; a journal replay checks both files against
    #: these.
    ssl_stamp: Optional[Tuple[int, int]] = None
    x509_stamp: Optional[Tuple[int, int]] = None
    #: What this worker observed, attached to the driver sink on merge.
    telemetry: Optional[WorkerTelemetry] = None


@dataclass
class GenerateResult:
    """The merged outcome of one parallel (or inline) generation run."""

    out_dir: str
    #: Shard pairs in interval order (every one sharing the broadcast
    #: ``x509.log``), ready for ``ingest_shards``.
    shards: List[ShardSpec] = field(default_factory=list)
    x509_path: str = ""
    ssl_rows: int = 0
    x509_rows: int = 0
    #: The worker count actually used (requested, clamped to CPU count
    #: and shard count) and the caller's pre-clamp request.
    jobs: int = 1
    requested_jobs: int = 1
    shard_count: int = 0
    #: How the supervised dispatch went (incidents, retries, replays).
    supervisor: Optional[SupervisedRun] = None


#: Per-process context memo: (seed, scale) -> (context, plans, first
#: appearances).  Pool workers process several intervals each; the
#: PKI/population build, the per-spec plans and the first-appearance map
#: are identical for all of them, so pay once.
_CONTEXT_CACHE: Dict[tuple, tuple] = {}


def _context_for(seed: int | str, scale: ScaleConfig):
    from ..campus.dataset import build_generation_context

    key = (seed, scale)
    cached = _CONTEXT_CACHE.get(key)
    if cached is None:
        context = build_generation_context(seed=seed, scale=scale)
        plans = [context.generator.plan_for(spec) for spec in context.specs]
        cached = (context, plans, _first_appearances(context.specs, plans))
        _CONTEXT_CACHE.clear()  # one live context per worker is plenty
        _CONTEXT_CACHE[key] = cached
    return cached


def _first_appearances(specs, plans) -> Dict[str, int]:
    """Fingerprint -> the interval whose x509 piece records it.

    That is the earliest interval holding a monitor-visible connection
    of any spec that presents the certificate: the serial monitoring tap
    records each certificate at its first presenting connection, and
    generation walks intervals in order.  Recovered from the cheap
    per-spec plans without simulating anything.
    """
    first: Dict[str, int] = {}
    for spec, plan in zip(specs, plans):
        if not plan.n_visible:
            continue
        shard = min(plan.shard_of[:plan.n_visible])
        for certificate in spec.chain:
            fingerprint = certificate.fingerprint
            if first.get(fingerprint, shard) >= shard:
                first[fingerprint] = shard
    return first


def _file_stamp(path: str) -> Optional[Tuple[int, int]]:
    """``(st_size, st_mtime_ns)`` of ``path``, or None when it is gone."""
    try:
        stat = os.stat(path)
    except FileNotFoundError:
        return None
    return stat.st_size, stat.st_mtime_ns


def process_generate_shard(task: GenerateTask) -> GenerateShardResult:
    """Simulate one study-window interval and write its shard logs.

    Streams the cell kernel's rows straight into the two log writers:
    the SSL row per connection, and an X509 row for each certificate
    this interval introduces, at its first presenting connection —
    timestamped, like the serial tap, with that connection's timestamp.
    """
    start = time.perf_counter()
    result = GenerateShardResult(shard=task.shard, ssl_path=task.ssl_path,
                                 x509_path=task.x509_path)
    with capture_telemetry("generate", task.shard) as telemetry, \
            trace_span("generate_shard", shard=task.shard):
        context, plans, first_appearances = _context_for(task.seed,
                                                         task.scale)
        specs = context.specs
        generator = context.generator
        introduced = {fingerprint
                      for fingerprint, shard in first_appearances.items()
                      if shard == task.shard}
        with open(task.ssl_path, "w", encoding="utf-8") as ssl_handle, \
                open(task.x509_path, "w", encoding="utf-8") as x509_handle:
            with ZeekLogWriter(ssl_handle, "ssl", SSLRecord.FIELDS,
                               SSLRecord.TYPES,
                               open_time=task.open_time) as ssl_writer, \
                    ZeekLogWriter(x509_handle, "x509", X509Record.FIELDS,
                                  X509Record.TYPES,
                                  open_time=task.open_time) as x509_writer:
                for row, when, chain in generator.generate_shard(
                        specs, task.shard, plans=plans):
                    ssl_writer.write_row(row)
                    result.ssl_rows += 1
                    for certificate in chain:
                        fingerprint = certificate.fingerprint
                        if fingerprint in introduced:
                            introduced.remove(fingerprint)
                            x509_writer.write_row(x509_record_from_certificate(
                                certificate, when).to_row())
                            result.x509_rows += 1
    result.ssl_stamp = _file_stamp(task.ssl_path)
    result.x509_stamp = _file_stamp(task.x509_path)
    result.telemetry = telemetry
    result.seconds = time.perf_counter() - start
    return result


def _generate_fingerprint(task: GenerateTask) -> str:
    """Journal identity of one generation interval."""
    return input_fingerprint([
        "generate-shard-v3", task.shard, task.seed, task.scale,
        task.open_time, task.ssl_path, task.x509_path,
    ])


def _generate_partial_valid(task: GenerateTask,
                            partial: GenerateShardResult) -> bool:
    """A journaled generation partial is only as good as its files.

    The payload is just tallies — the real output is the shard pair on
    disk, so a replay is vetoed (and the interval regenerated) when
    either file has vanished, or changed size or mtime, since the worker
    that wrote it finished.
    """
    return (partial.ssl_stamp is not None
            and _file_stamp(partial.ssl_path) == partial.ssl_stamp
            and _file_stamp(partial.x509_path) == partial.x509_stamp)


def generate_dataset(out_dir: str, *,
                     seed: int | str = 0,
                     scale: ScaleConfig,
                     jobs: Optional[int] = None,
                     open_time: datetime = STUDY_START,
                     supervise: Optional[SupervisorConfig] = None
                     ) -> GenerateResult:
    """Generate the (seed, scale) dataset as paired shard logs.

    ``jobs=None`` uses ``os.cpu_count()``; the effective count is capped
    at the CPU count and the fixed interval count (the request and the
    clamped value are both recorded on the result).  Output is
    ``ssl-NN.log`` shards plus one broadcast ``x509.log`` under
    ``out_dir`` — the layout
    :func:`~repro.parallel.shards.discover_shards` pairs directly.
    Dispatch runs through the supervised executor (``supervise`` tunes
    deadlines/retries/journaling); every shard's bytes are a pure
    function of (seed, scale, interval), so a retried or journal-
    replayed interval writes/keeps exactly the bytes an undisturbed
    worker would have.
    """
    os.makedirs(out_dir, exist_ok=True)
    shard_count = GENERATION_SHARDS
    requested, jobs = clamp_jobs(jobs, shard_count)
    tasks = [GenerateTask(shard=shard, seed=seed, scale=scale,
                          ssl_path=os.path.join(out_dir,
                                                f"ssl-{shard:02d}.log"),
                          x509_path=os.path.join(out_dir,
                                                 f".x509-{shard:02d}.part"),
                          open_time=open_time)
             for shard in range(shard_count)]
    config = resolve_config(supervise, plan=active_plan())
    with trace_span("parallel_generate", shards=shard_count, jobs=jobs):
        outcome = run_supervised(
            "generate", tasks, process_generate_shard, jobs=jobs,
            config=config,
            task_ids=lambda task, i: f"generate:{task.shard:04d}",
            fingerprint_fn=_generate_fingerprint,
            validate_fn=_generate_partial_valid)
        partials = [p for p in outcome.results if p is not None]
        x509_path = _merge_x509(out_dir, partials,
                                keep_pieces=config.journal is not None)
    result = _reduce(out_dir, partials, jobs=jobs, x509_path=x509_path)
    result.supervisor = outcome
    result.requested_jobs = requested
    log.debug("parallel generate complete", extra=kv(
        shards=shard_count, jobs=jobs, requested_jobs=requested,
        ssl_rows=result.ssl_rows, x509_rows=result.x509_rows))
    return result


def _merge_x509(out_dir: str, partials: List[GenerateShardResult], *,
                keep_pieces: bool = False) -> str:
    """Stitch the per-interval x509 pieces into one broadcast log.

    Piece headers are identical (pinned ``open_time``), so the merged
    log is piece 0's header block, every piece's data rows in interval
    order, and the shared ``#close`` footer — byte-identical to the
    serial ``x509.log``.  The intermediates (hidden ``.x509-NN.part``
    names that shard discovery never pairs) are removed afterwards —
    unless the run is journaled (``keep_pieces``): a ``--resume`` replay
    validates each interval against its piece file, so deleting them
    would force every interval to regenerate.
    """
    merged_path = os.path.join(out_dir, "x509.log")
    footer = ""
    with open(merged_path, "w", encoding="utf-8") as merged:
        for position, partial in enumerate(
                sorted(partials, key=lambda p: p.shard)):
            with open(partial.x509_path, "r", encoding="utf-8") as piece:
                for line in piece:
                    if not line.startswith("#"):
                        merged.write(line)
                    elif line.startswith("#close"):
                        footer = line
                    elif position == 0:
                        merged.write(line)
        merged.write(footer)
    if not keep_pieces:
        for partial in partials:
            os.remove(partial.x509_path)
    return merged_path


def _reduce(out_dir: str, partials: List[GenerateShardResult], *,
            jobs: int, x509_path: str) -> GenerateResult:
    """Fold partials in interval order; emit the canonical metrics."""
    result = GenerateResult(out_dir=out_dir, jobs=jobs,
                            shard_count=len(partials), x509_path=x509_path)
    sink = get_sink()
    for partial in sorted(partials, key=lambda p: p.shard):
        sink.attach(partial.telemetry)
        result.shards.append(ShardSpec(index=partial.shard,
                                       ssl_path=partial.ssl_path,
                                       x509_path=x509_path))
        result.ssl_rows += partial.ssl_rows
        result.x509_rows += partial.x509_rows
        # Canonical write metrics, exactly as the serial writers would
        # have recorded them (one labelled inc per non-empty log).
        if partial.ssl_rows:
            instruments.ZEEK_ROWS.inc(partial.ssl_rows,
                                      direction="written", path="ssl")
        if partial.x509_rows:
            instruments.ZEEK_ROWS.inc(partial.x509_rows,
                                      direction="written", path="x509")
        instruments.GENERATE_SHARDS.inc(outcome="ok")
        instruments.GENERATE_SHARD_SECONDS.observe(partial.seconds)
    instruments.GENERATE_WORKERS.set(jobs)
    return result
