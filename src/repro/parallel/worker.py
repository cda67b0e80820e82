"""The map side of parallel ingestion: X509 logs once, SSL shards folded.

Two task functions run inside worker processes (or inline):

* :func:`process_x509_log` reads one ``x509.log`` column-at-a-time,
  keeps the last row per fingerprint in first-seen fingerprint order,
  and returns the de-duplicated rows as one packed X509 section
  (:func:`~repro.core.packed.pack_x509_section`) — once per distinct
  log, however many shards join it;
* :func:`process_shard` reads one shard's SSL log and folds it straight
  into chain partials against its X509 log's fingerprints, which reach
  the worker once, as the dispatch's shared state
  (:func:`~repro.parallel.pool.shared_state`: fingerprint → position in
  the log's fingerprint list), never inside the task.  Its partial is a
  chain-only packed payload whose keys are those positions.

Workers leave **no direct metrics behind**: each body runs under
:func:`~repro.obs.sink.capture_telemetry`, which runs it observed
(metrics and spans enabled) and then diffs the changes away into a
picklable :class:`~repro.obs.sink.WorkerTelemetry` riding home on the
partial.  A forked child inherits the parent's counter values, so raw
per-worker increments would be double-counted garbage, and per-shard
``CHAIN_DISTINCT`` increments would overcount chains that appear in
several shards.  The driver derives every canonical metric from the
merged result instead — which also makes metric values independent of
``--jobs`` — and replays only the fault-kind split (the one value that
genuinely lives worker-side) from the captured telemetry.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..core.packed import (ChainFold, X509_COLUMN_SPEC, fold_ssl_segment,
                           pack_shard_payload, pack_x509_section)
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs.sink import WorkerTelemetry, capture_telemetry
from ..obs.tracing import trace_span
from ..resilience.quarantine import Quarantine, QuarantinedRecord
from ..zeek.columnar import ColumnarStats, read_zeek_log_columnar
from .pool import shared_state

__all__ = ["X509Task", "X509Partial", "ShardTask", "ShardPartial",
           "process_x509_log", "process_shard"]

#: SSL columns the columnar fold consumes; every other column is either
#: validated without being stored (numeric kinds whose parse can fail)
#: or skipped outright (infallible strings/bools) — see
#: :func:`repro.zeek.columnar.read_zeek_log_columnar`.
_SSL_PROJECTION = frozenset({"ts", "id.orig_h", "id.resp_h", "id.resp_p",
                             "established", "server_name", "cert_chain_fps"})
_SSL_INTERN = ("cert_chain_fps", "server_name")
_X509_PROJECTION = frozenset(name for name, _ in X509_COLUMN_SPEC)


def _injector(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    return FaultInjector(plan) if plan is not None and plan.any() else None


@dataclass(frozen=True, slots=True)
class X509Task:
    """One distinct X509 log to read, picklable for the process pool.

    ``vectorise`` is the ingest's read mode (see
    :data:`~repro.parallel.engine.VECTORISE_MIN_BYTES`); it changes only
    the decode tallies, so it is not part of the journal fingerprint.
    """

    index: int
    x509_path: str
    plan: Optional[FaultPlan] = None
    tolerant: bool = False
    vectorise: bool = True


@dataclass(slots=True)
class X509Partial:
    """One X509 log, read once: its packed section plus the tallies the
    driver needs to emit the log's canonical metrics."""

    section: bytes = b""
    rows: int = 0
    log_label: str = "unknown"
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    #: Decode-path tallies; the driver emits ``repro_columnar_*`` from
    #: them so exports stay independent of ``--jobs``.
    stats: Optional[ColumnarStats] = None
    seconds: float = 0.0
    telemetry: Optional[WorkerTelemetry] = None


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One SSL shard to fold, picklable for the process pool.

    ``x509_path`` names the log whose fingerprint positions (the
    dispatch's shared state) the shard joins against; ``vectorise`` is
    as on :class:`X509Task`.
    """

    index: int
    ssl_path: str
    x509_path: str
    plan: Optional[FaultPlan] = None
    tolerant: bool = False
    vectorise: bool = True


@dataclass(slots=True)
class ShardPartial:
    """One shard's packed partial — the unit the driver folds.

    The chain columns cross the process boundary as one opaque
    ``bytes`` payload (see :mod:`repro.core.packed`); pickling it is a
    memcpy, so the hand-off cost does not scale with object-graph
    complexity.
    """

    index: int
    payload: bytes = b""
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    ssl_rows: int = 0
    ssl_log_label: str = "unknown"
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0
    skipped_empty: int = 0
    seconds: float = 0.0
    telemetry: Optional[WorkerTelemetry] = None
    stats: Optional[ColumnarStats] = None


def process_x509_log(task: X509Task) -> X509Partial:
    """Read one X509 log once and pack its de-duplicated rows.

    Keeps the *last* row per fingerprint in *first-seen* fingerprint
    order — what a fingerprint-keyed certificate map over every row
    converges to.  Strict mode (``tolerant=False``) lets
    :class:`~repro.zeek.format.ZeekFormatError` propagate; fault plans
    force the reader onto the per-line parity path, so quarantine
    ``file:line`` records match the row readers byte for byte.
    """
    start = time.perf_counter()
    quarantine = Quarantine() if task.tolerant else None
    partial = X509Partial()
    with capture_telemetry("x509", task.index) as telemetry, \
            trace_span("ingest_x509", log=task.index):
        x509 = read_zeek_log_columnar(task.x509_path, quarantine=quarantine,
                                      faults=_injector(task.plan),
                                      project=_X509_PROJECTION,
                                      vectorise=task.vectorise)
        seen: dict = {}
        picks: list = []
        for segment in x509.segments:
            for i, fingerprint in enumerate(segment.columns["fingerprint"]):
                position = seen.get(fingerprint)
                if position is None:
                    seen[fingerprint] = len(picks)
                    picks.append((segment, i))
                else:
                    picks[position] = (segment, i)
        partial.section = pack_x509_section({
            name: [segment.columns[name][i] for segment, i in picks]
            for name, _ in X509_COLUMN_SPEC})
    partial.telemetry = telemetry
    partial.rows = x509.rows
    partial.log_label = x509.path or "unknown"
    partial.stats = x509.stats
    if quarantine is not None:
        partial.quarantined = quarantine.records
    partial.seconds = time.perf_counter() - start
    return partial


def process_shard(task: ShardTask) -> ShardPartial:
    """Fold one SSL shard against its X509 log's fingerprints.

    The SSL log is read column-at-a-time and folded straight into chain
    partials without materialising a row object: the same
    missing-certificate tallies, empty-key skips and per-row usage
    updates as :meth:`~repro.core.chain.ChainUsage.record` over a
    row-object join, with client IPs, server IPs and SNIs interned
    against the shard's own string table.  Strict/tolerant and
    fault-injection semantics match :func:`process_x509_log`; fault
    draws are keyed by line number, so each shard file draws the same
    corruption pattern no matter which worker (or how many workers)
    processes it.
    """
    start = time.perf_counter()
    quarantine = Quarantine() if task.tolerant else None
    positions = shared_state()[task.x509_path]
    partial = ShardPartial(index=task.index)
    with capture_telemetry("ingest", task.index) as telemetry, \
            trace_span("ingest_shard", shard=task.index):
        ssl = read_zeek_log_columnar(task.ssl_path, quarantine=quarantine,
                                     faults=_injector(task.plan),
                                     intern=_SSL_INTERN,
                                     project=_SSL_PROJECTION,
                                     vectorise=task.vectorise)
        fold = ChainFold()
        for segment in ssl.segments:
            columns = segment.columns
            sni = columns["server_name"]
            chain_fps = columns["cert_chain_fps"]
            fold_ssl_segment(
                fold, known_fps=positions, ts=columns["ts"],
                client_ip=columns["id.orig_h"],
                server_ip=columns["id.resp_h"], port=columns["id.resp_p"],
                established=columns["established"], sni_ids=sni.ids,
                sni_values=sni.table.values, chain_ids=chain_fps.ids,
                chain_values=chain_fps.table.values)
        partial.payload = pack_shard_payload(fold, positions=positions)
        with trace_span("shard_payload", shard=task.index,
                        payload_bytes=len(partial.payload)):
            pass  # zero-duration marker: payload size in the trace
    partial.telemetry = telemetry
    partial.ssl_rows = ssl.rows
    partial.ssl_log_label = ssl.path or "unknown"
    partial.joined = fold.joined
    partial.missing_certs = fold.missing_certs
    partial.aggregated = fold.aggregated
    partial.skipped_empty = fold.joined - fold.aggregated
    partial.stats = ssl.stats
    if quarantine is not None:
        partial.quarantined = quarantine.records
    partial.seconds = time.perf_counter() - start
    return partial
