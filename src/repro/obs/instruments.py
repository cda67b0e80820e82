"""The pipeline's metric catalogue — every instrument declared in one place.

Instrumented modules import their handles from here instead of repeating
name/help/label strings, so the metric namespace stays consistent (and
``docs/OBSERVABILITY.md`` documents exactly this file).  All handles live
on the default registry; ``get_registry().reset()`` zeroes them between
runs without invalidating these references.

Naming follows Prometheus conventions: ``repro_<subsystem>_<what>_<unit>``
with ``_total`` on counters and base-unit seconds on histograms.
"""

from __future__ import annotations

from .metrics import get_registry

_R = get_registry()

# -- core pipeline ------------------------------------------------------------

PIPELINE_RUNS = _R.counter(
    "repro_pipeline_runs_total",
    "Full Figure-2 analyzer runs completed.")
PIPELINE_CHAINS = _R.counter(
    "repro_pipeline_chains_total",
    "Distinct observed chains entering the analyzer.")
PIPELINE_CATEGORY_CHAINS = _R.counter(
    "repro_pipeline_category_chains_total",
    "Chains per assigned category after stage 2.",
    labelnames=("category",))
STRUCTURE_CACHE_LOOKUPS = _R.counter(
    "repro_structure_cache_lookups_total",
    "Chain-structure cache lookups by result.",
    labelnames=("result",))

# -- chain aggregation --------------------------------------------------------

CHAIN_CONNECTIONS = _R.counter(
    "repro_chain_connections_total",
    "Joined connections folded into chain usage, by outcome.",
    labelnames=("result",))
CHAIN_DISTINCT = _R.counter(
    "repro_chain_distinct_total",
    "New distinct delivered chains discovered during aggregation.")

# -- zeek ingest --------------------------------------------------------------

ZEEK_ROWS = _R.counter(
    "repro_zeek_rows_total",
    "Zeek ASCII log rows processed, by direction and log path.",
    labelnames=("direction", "path"))
ZEEK_JOIN_CONNECTIONS = _R.counter(
    "repro_zeek_join_connections_total",
    "SSL rows joined against the X509 log.")
ZEEK_JOIN_MISSING_CERTS = _R.counter(
    "repro_zeek_join_missing_certs_total",
    "Chain fingerprints referenced by SSL rows but absent from x509.log.")

# -- parse caches -------------------------------------------------------------

DN_PARSE_CACHE = _R.counter(
    "repro_dn_parse_cache_lookups_total",
    "RFC 4514 distinguished-name parse cache lookups, by result.",
    labelnames=("result",))
CERT_RECONSTRUCT_CACHE = _R.counter(
    "repro_cert_reconstruct_cache_lookups_total",
    "Certificate reconstruction (X509 row -> Certificate) cache lookups, "
    "by result.",
    labelnames=("result",))
DER_ENCODE_CACHE = _R.counter(
    "repro_der_encode_cache_lookups_total",
    "Certificate DER serialization memo lookups, by result.",
    labelnames=("result",))
DER_PART_CACHE = _R.counter(
    "repro_der_part_cache_lookups_total",
    "Shared DER component memo lookups (encoded names and extension "
    "blocks reused across certificates), by part and result.",
    labelnames=("part", "result"))

# -- columnar ingest ----------------------------------------------------------

COLUMNAR_ROWS = _R.counter(
    "repro_columnar_rows_total",
    "Rows decoded by the columnar reader, by decode mode (vectorized "
    "struct-of-arrays runs vs the per-line parity path).",
    labelnames=("mode",))
COLUMNAR_RUNS = _R.counter(
    "repro_columnar_runs_total",
    "Contiguous data-line runs the columnar reader processed, by outcome "
    "(vectorized, or fallback to the per-line path for exact quarantine "
    "locations).",
    labelnames=("outcome",))
COLUMNAR_INTERN_LOOKUPS = _R.counter(
    "repro_columnar_intern_lookups_total",
    "Interned-column id-table lookups, by column (table) and result.",
    labelnames=("table", "result"))
COLUMNAR_PAYLOAD_BYTES = _R.counter(
    "repro_columnar_payload_bytes_total",
    "Packed column-buffer payload bytes handed from columnar ingest "
    "workers to the driver (the zero-pickle shard hand-off).")

# -- parallel ingestion -------------------------------------------------------

PARALLEL_SHARDS = _R.counter(
    "repro_parallel_shards_total",
    "Shards processed by the parallel ingestion engine, by outcome.",
    labelnames=("outcome",))
PARALLEL_SHARD_ROWS = _R.counter(
    "repro_parallel_shard_rows_total",
    "Log rows ingested through the parallel engine, by log path label.",
    labelnames=("path",))
PARALLEL_WORKERS = _R.gauge(
    "repro_parallel_workers",
    "Worker processes used by the most recent parallel ingest.")
PARALLEL_SHARD_SECONDS = _R.histogram(
    "repro_parallel_shard_seconds",
    "Wall-clock seconds one worker spent ingesting one shard.")

# -- parallel analysis --------------------------------------------------------

ANALYSIS_PARTITIONS = _R.counter(
    "repro_analysis_partitions_total",
    "Chain partitions processed by the parallel analysis engine, "
    "by outcome.",
    labelnames=("outcome",))
ANALYSIS_CHAINS = _R.counter(
    "repro_analysis_chains_total",
    "Chains enriched through the parallel analysis engine, by stage.",
    labelnames=("stage",))
ANALYSIS_WORKERS = _R.gauge(
    "repro_analysis_workers",
    "Worker processes used by the most recent parallel analysis.")
ANALYSIS_PARTITION_SECONDS = _R.histogram(
    "repro_analysis_partition_seconds",
    "Wall-clock seconds one worker spent enriching one chain partition.")
ANALYSIS_ARTIFACTS = _R.counter(
    "repro_analysis_artifacts_total",
    "Content-addressed analysis artifact events (hit/miss/stale/corrupt/"
    "saved).",
    labelnames=("result",))

# -- parallel generation ------------------------------------------------------

GENERATE_SHARDS = _R.counter(
    "repro_generate_shards_total",
    "Dataset shards produced by the parallel generation engine, by outcome.",
    labelnames=("outcome",))
GENERATE_WORKERS = _R.gauge(
    "repro_generate_workers",
    "Worker processes used by the most recent parallel generation.")
GENERATE_SHARD_SECONDS = _R.histogram(
    "repro_generate_shard_seconds",
    "Wall-clock seconds one worker spent generating one dataset shard.")

# -- matching memos -----------------------------------------------------------

MATCH_MEMO = _R.counter(
    "repro_match_memo_lookups_total",
    "(child_fp, parent_fp) pair-match memo lookups, by result.",
    labelnames=("result",))
CT_VERDICT_MEMO = _R.counter(
    "repro_ct_verdict_memo_lookups_total",
    "Interception CT-verdict memo lookups (per leaf + domain set), "
    "by result.",
    labelnames=("result",))

# -- CT index -----------------------------------------------------------------

CT_LOOKUPS = _R.counter(
    "repro_ct_lookups_total",
    "crt.sh-style domain lookups, by whether CT had any record.",
    labelnames=("result",))
CT_INDEXED_RECORDS = _R.counter(
    "repro_ct_indexed_records_total",
    "Domain records ingested into the CT index.")

# -- interception detection ---------------------------------------------------

INTERCEPTION_CHAINS = _R.counter(
    "repro_interception_chains_total",
    "Chains examined by the interception detector, by verdict.",
    labelnames=("verdict",))

# -- active scanning ----------------------------------------------------------

SCAN_ATTEMPTS = _R.counter(
    "repro_scan_attempts_total",
    "Active scan attempts, by outcome.",
    labelnames=("outcome",))

# -- resilience ---------------------------------------------------------------

FAULTS_INJECTED = _R.counter(
    "repro_faults_injected_total",
    "Faults the injector imposed, by kind.",
    labelnames=("kind",))
RETRY_ATTEMPTS = _R.counter(
    "repro_retry_attempts_total",
    "Retried-call attempts, by operation and result.",
    labelnames=("operation", "result"))
BREAKER_TRANSITIONS = _R.counter(
    "repro_breaker_transitions_total",
    "Circuit-breaker state transitions, by breaker and new state.",
    labelnames=("breaker", "state"))
BREAKER_REJECTIONS = _R.counter(
    "repro_breaker_rejections_total",
    "Calls rejected while a breaker was open/half-open saturated.",
    labelnames=("breaker",))
QUARANTINE_RECORDS = _R.counter(
    "repro_quarantine_records_total",
    "Records quarantined instead of aborting the run, by source and reason.",
    labelnames=("source", "reason"))
CHECKPOINT_STAGES = _R.counter(
    "repro_checkpoint_stages_total",
    "Pipeline-stage checkpoint events (saved/loaded/stale/corrupt).",
    labelnames=("stage", "result"))

# -- supervised execution -----------------------------------------------------
#
# Operational families: they describe what the supervisor had to *do*
# (retries, rebuilds, journal replays), so — like the worker bookkeeping
# counters — they legitimately vary with ``--jobs`` and with where a run
# was killed.  The determinism guarantee covers the merged outputs, not
# these.

SUPERVISOR_TASKS = _R.counter(
    "repro_supervisor_tasks_total",
    "Tasks dispatched through the supervised executor, by engine kind "
    "and final outcome (completed/replayed/fallback/quarantined/dropped).",
    labelnames=("kind", "outcome"))
SUPERVISOR_INCIDENTS = _R.counter(
    "repro_supervisor_incidents_total",
    "Failures the supervisor absorbed, by engine kind and incident "
    "(worker_crash/worker_hang/serial_fallback).",
    labelnames=("kind", "incident"))
SUPERVISOR_POOL_REBUILDS = _R.counter(
    "repro_supervisor_pool_rebuilds_total",
    "Worker pools torn down and rebuilt after a crash or hang, by "
    "engine kind.",
    labelnames=("kind",))
SUPERVISOR_JOURNAL = _R.counter(
    "repro_supervisor_journal_total",
    "Run-journal events (appended/replayed/stale/torn).",
    labelnames=("result",))

# -- cross-process telemetry --------------------------------------------------

WORKER_TELEMETRY_RECORDS = _R.counter(
    "repro_worker_telemetry_records_total",
    "WorkerTelemetry captures attached to the driver sink, by engine kind.",
    labelnames=("kind",))
WORKER_SPANS = _R.counter(
    "repro_worker_spans_total",
    "Worker-side spans collected through the telemetry sink, by engine "
    "kind.",
    labelnames=("kind",))
TRACE_EXPORT_EVENTS = _R.gauge(
    "repro_trace_export_events",
    "Events written by the most recent Chrome-trace export.")

# -- experiments --------------------------------------------------------------

EXPERIMENT_RUNS = _R.counter(
    "repro_experiment_runs_total",
    "Experiment executions, by experiment id.",
    labelnames=("experiment",))

# Frequently-hit children, resolved once so hot loops skip the label lookup.
STRUCTURE_CACHE_HIT = STRUCTURE_CACHE_LOOKUPS.labels(result="hit")
STRUCTURE_CACHE_MISS = STRUCTURE_CACHE_LOOKUPS.labels(result="miss")
CT_LOOKUP_HIT = CT_LOOKUPS.labels(result="hit")
CT_LOOKUP_MISS = CT_LOOKUPS.labels(result="miss")
CHAIN_CONN_AGGREGATED = CHAIN_CONNECTIONS.labels(result="aggregated")
CHAIN_CONN_SKIPPED = CHAIN_CONNECTIONS.labels(result="skipped_empty")
DN_PARSE_CACHE_HIT = DN_PARSE_CACHE.labels(result="hit")
DN_PARSE_CACHE_MISS = DN_PARSE_CACHE.labels(result="miss")
CERT_CACHE_HIT = CERT_RECONSTRUCT_CACHE.labels(result="hit")
CERT_CACHE_MISS = CERT_RECONSTRUCT_CACHE.labels(result="miss")
DER_CACHE_HIT = DER_ENCODE_CACHE.labels(result="hit")
DER_CACHE_MISS = DER_ENCODE_CACHE.labels(result="miss")
DER_NAME_CACHE_HIT = DER_PART_CACHE.labels(part="name", result="hit")
DER_NAME_CACHE_MISS = DER_PART_CACHE.labels(part="name", result="miss")
DER_EXT_CACHE_HIT = DER_PART_CACHE.labels(part="extensions", result="hit")
DER_EXT_CACHE_MISS = DER_PART_CACHE.labels(part="extensions", result="miss")
COLUMNAR_ROWS_VECTORIZED = COLUMNAR_ROWS.labels(mode="vectorized")
COLUMNAR_ROWS_LINE = COLUMNAR_ROWS.labels(mode="line")
COLUMNAR_RUNS_VECTORIZED = COLUMNAR_RUNS.labels(outcome="vectorized")
COLUMNAR_RUNS_FALLBACK = COLUMNAR_RUNS.labels(outcome="fallback")
MATCH_MEMO_HIT = MATCH_MEMO.labels(result="hit")
MATCH_MEMO_MISS = MATCH_MEMO.labels(result="miss")
CT_VERDICT_MEMO_HIT = CT_VERDICT_MEMO.labels(result="hit")
CT_VERDICT_MEMO_MISS = CT_VERDICT_MEMO.labels(result="miss")
