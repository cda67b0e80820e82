"""The map side of parallel ingestion: one shard in, one aggregate out.

:func:`process_shard` runs inside a worker process.  It streams the
shard's X509 log into a fingerprint-keyed certificate map, then streams
the SSL log through the join straight into chain aggregation — no
full-shard row list ever exists — and returns a picklable
:class:`ShardAggregate`: the shard's chain-key → usage partials plus
every tally the driver needs to reconstruct the canonical metrics.

Workers leave **no direct metrics behind**: the whole body runs under
:func:`~repro.obs.sink.capture_telemetry`, which runs it observed
(metrics and spans enabled) and then diffs the changes away into a
picklable :class:`~repro.obs.sink.WorkerTelemetry` riding home on the
aggregate.  A forked child inherits the parent's counter values, so raw
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
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.chain import ObservedChain, aggregate_chains
from ..core.packed import (ChainFold, X509_COLUMN_SPEC, fold_ssl_segment,
                           pack_shard_payload)
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs.sink import WorkerTelemetry, capture_telemetry
from ..obs.tracing import trace_span
from ..resilience.quarantine import Quarantine, QuarantinedRecord
from ..zeek.columnar import ColumnarStats, read_zeek_log_columnar
from ..zeek.format import ZeekLogReader, iter_zeek_log
from ..zeek.records import SSLRecord, X509Record
from ..zeek.tap import JoinStats, certificate_map, iter_joined

__all__ = ["ShardTask", "ShardAggregate", "ColumnarShardAggregate",
           "process_shard", "process_shard_columnar"]

#: SSL columns the columnar fold consumes; every other column is either
#: validated without being stored (numeric kinds whose parse can fail)
#: or skipped outright (infallible strings/bools) — see
#: :func:`repro.zeek.columnar.read_zeek_log_columnar`.
_SSL_PROJECTION = frozenset({"ts", "id.orig_h", "id.resp_h", "id.resp_p",
                             "established", "server_name", "cert_chain_fps"})
_SSL_INTERN = ("cert_chain_fps", "server_name")
_X509_PROJECTION = frozenset(name for name, _ in X509_COLUMN_SPEC)


@dataclass(frozen=True, slots=True)
class ShardTask:
    """Everything a worker needs, picklable for the process pool."""

    index: int
    ssl_path: str
    x509_path: str
    plan: Optional[FaultPlan] = None
    tolerant: bool = False
    compiled: bool = True
    columnar: bool = False


@dataclass(slots=True)
class ShardAggregate:
    """One shard's partial result — the unit the driver reduces over."""

    index: int
    chains: Dict[Tuple[str, ...], ObservedChain] = field(default_factory=dict)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    #: Distinct certificate fingerprints in first-seen (row) order.
    cert_fingerprints: List[str] = field(default_factory=list)
    ssl_rows: int = 0
    x509_rows: int = 0
    ssl_log_label: str = "unknown"
    x509_log_label: str = "unknown"
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0
    skipped_empty: int = 0
    seconds: float = 0.0
    #: Everything this worker observed (spans, metric deltas), attached
    #: to the driver's sink during the reduce.
    telemetry: Optional[WorkerTelemetry] = None


@dataclass(slots=True)
class ColumnarShardAggregate:
    """One shard's packed partial — the columnar hand-off unit.

    The row data crosses the process boundary as one opaque ``bytes``
    payload (see :mod:`repro.core.packed`); pickling it is a memcpy, so
    the hand-off cost no longer scales with object-graph complexity.
    The payload's X509 section depends on the X509 log alone, so shards
    that joined one broadcast log return identical sections and the
    driver rebuilds their certificates once, then reduces through the
    same merge as the compiled path.
    """

    index: int
    payload: bytes = b""
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    ssl_rows: int = 0
    x509_rows: int = 0
    ssl_log_label: str = "unknown"
    x509_log_label: str = "unknown"
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0
    skipped_empty: int = 0
    seconds: float = 0.0
    telemetry: Optional[WorkerTelemetry] = None
    #: Decode-path tallies from the two columnar reads; the driver emits
    #: the canonical ``repro_columnar_*`` metrics from these so exports
    #: stay independent of ``--jobs``.
    ssl_stats: Optional[ColumnarStats] = None
    x509_stats: Optional[ColumnarStats] = None


def process_shard(task: ShardTask) -> ShardAggregate:
    """Ingest one shard: stream, join, aggregate; return the partials.

    Strict mode (``tolerant=False``) lets :class:`ZeekFormatError`
    propagate — the pool re-raises it in the driver with its ``file:line``
    message intact.  Fault injection uses the task's own plan so each
    shard file draws the same corruption pattern no matter which worker
    (or how many workers) processes it.

    ``task.columnar`` dispatches to :func:`process_shard_columnar`; the
    supervisor always submits this function, so journaled runs replay
    whichever mode their fingerprint recorded.
    """
    if task.columnar:
        return process_shard_columnar(task)
    start = time.perf_counter()
    quarantine = Quarantine() if task.tolerant else None
    injector = (FaultInjector(task.plan)
                if task.plan is not None and task.plan.any() else None)
    aggregate = ShardAggregate(index=task.index)
    with capture_telemetry("ingest", task.index) as telemetry, \
            trace_span("ingest_shard", shard=task.index):
        x509_refs: List[ZeekLogReader] = []
        x509_records: List[X509Record] = []
        seen_fps = set()
        for row in iter_zeek_log(task.x509_path, quarantine=quarantine,
                                 faults=injector, compiled=task.compiled,
                                 reader_ref=x509_refs):
            record = X509Record.from_row(row)
            x509_records.append(record)
            aggregate.x509_rows += 1
            fingerprint = record.fingerprint
            if fingerprint not in seen_fps:
                seen_fps.add(fingerprint)
                aggregate.cert_fingerprints.append(fingerprint)
        certificates = certificate_map(x509_records)
        del x509_records

        ssl_refs: List[ZeekLogReader] = []
        stats = JoinStats()

        def ssl_stream() -> Iterator[SSLRecord]:
            for row in iter_zeek_log(task.ssl_path, quarantine=quarantine,
                                     faults=injector, compiled=task.compiled,
                                     reader_ref=ssl_refs):
                aggregate.ssl_rows += 1
                yield SSLRecord.from_row(row)

        aggregate.chains = aggregate_chains(
            iter_joined(ssl_stream(), certificates, stats=stats))
    aggregate.telemetry = telemetry

    aggregate.ssl_log_label = (ssl_refs[0].path if ssl_refs else None) or "unknown"
    aggregate.x509_log_label = (x509_refs[0].path if x509_refs else None) or "unknown"
    aggregate.joined = stats.joined
    aggregate.missing_certs = stats.missing_certs
    aggregate.aggregated = sum(
        chain.usage.connections for chain in aggregate.chains.values())
    aggregate.skipped_empty = stats.joined - aggregate.aggregated
    if quarantine is not None:
        aggregate.quarantined = quarantine.records
    aggregate.seconds = time.perf_counter() - start
    return aggregate


def process_shard_columnar(task: ShardTask) -> ColumnarShardAggregate:
    """Ingest one shard through the struct-of-arrays hot path.

    Both logs are read column-at-a-time (:func:`read_zeek_log_columnar`);
    the X509 side is de-duplicated positionally (last row per
    fingerprint, first-seen fingerprint order — exactly what the legacy
    ``certificate_map`` dict comprehension converges to), the SSL side is
    folded straight into chain partials without ever materialising a row
    object, and everything ships home as one packed column payload
    whose X509 section is byte-identical across shards of one log.
    Strict/tolerant and fault-injection semantics are identical to
    :func:`process_shard` — fault plans force the reader onto the
    per-line parity path, so quarantine ``file:line`` records match the
    row readers byte for byte.
    """
    start = time.perf_counter()
    quarantine = Quarantine() if task.tolerant else None
    injector = (FaultInjector(task.plan)
                if task.plan is not None and task.plan.any() else None)
    aggregate = ColumnarShardAggregate(index=task.index)
    with capture_telemetry("ingest", task.index) as telemetry, \
            trace_span("ingest_shard", shard=task.index):
        x509 = read_zeek_log_columnar(task.x509_path, quarantine=quarantine,
                                      faults=injector,
                                      project=_X509_PROJECTION)
        # De-duplicate by fingerprint: keep the *last* row per
        # fingerprint in *first-seen* fingerprint order (the legacy
        # worker builds certificate_map over all records — last row
        # wins — and tracks first-seen order separately).
        seen: dict = {}
        picks: list = []
        for segment in x509.segments:
            fingerprints = segment.columns["fingerprint"]
            if isinstance(fingerprints, list):
                values = fingerprints
            else:  # pragma: no cover - fingerprint is never interned
                values = fingerprints.materialize()
            for i, fingerprint in enumerate(values):
                position = seen.get(fingerprint)
                if position is None:
                    seen[fingerprint] = len(picks)
                    picks.append((segment, i))
                else:
                    picks[position] = (segment, i)
        x509_columns = {
            name: [segment.columns[name][i] for segment, i in picks]
            for name, _ in X509_COLUMN_SPEC}
        known_fps = frozenset(seen)

        ssl = read_zeek_log_columnar(task.ssl_path, quarantine=quarantine,
                                     faults=injector, intern=_SSL_INTERN,
                                     project=_SSL_PROJECTION)
        fold = ChainFold()
        for segment in ssl.segments:
            columns = segment.columns
            sni = columns["server_name"]
            chain_fps = columns["cert_chain_fps"]
            fold_ssl_segment(
                fold, known_fps=known_fps, ts=columns["ts"],
                client_ip=columns["id.orig_h"],
                server_ip=columns["id.resp_h"], port=columns["id.resp_p"],
                established=columns["established"], sni_ids=sni.ids,
                sni_values=sni.table.values, chain_ids=chain_fps.ids,
                chain_values=chain_fps.table.values)
        aggregate.payload = pack_shard_payload(
            chain_keys=list(fold.chains), usages=list(fold.chains.values()),
            cert_fingerprints=list(seen), x509_columns=x509_columns)
        with trace_span("shard_payload", shard=task.index,
                        payload_bytes=len(aggregate.payload)):
            pass  # zero-duration marker: payload size in the trace
    aggregate.telemetry = telemetry

    aggregate.ssl_rows = ssl.rows
    aggregate.x509_rows = x509.rows
    aggregate.ssl_log_label = ssl.path or "unknown"
    aggregate.x509_log_label = x509.path or "unknown"
    aggregate.joined = fold.joined
    aggregate.missing_certs = fold.missing_certs
    aggregate.aggregated = fold.aggregated
    aggregate.skipped_empty = fold.joined - fold.aggregated
    aggregate.ssl_stats = ssl.stats
    aggregate.x509_stats = x509.stats
    if quarantine is not None:
        aggregate.quarantined = quarantine.records
    aggregate.seconds = time.perf_counter() - start
    return aggregate
