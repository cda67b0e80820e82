"""repro.obs — pipeline observability.

Structured logging, stage tracing, and a process-local metrics registry
with Prometheus/JSON export.  Six modules:

``metrics``
    :class:`MetricsRegistry` with Counter/Gauge/Histogram primitives
    (labelled, thread-safe, deterministic fixed buckets).
``instruments``
    The catalogue of every metric the pipeline emits.
``tracing``
    ``with trace_span("categorize", chains=n):`` nested wall-clock spans.
``logging``
    ``get_logger(name)`` structured key=value stdlib logging with a
    ``REPRO_LOG_LEVEL`` override.
``exporters``
    Prometheus text exposition, JSON snapshots, and the diffable
    :class:`RunReport`.
``sink``
    Cross-process telemetry: :func:`capture_telemetry` in workers,
    :class:`TelemetrySink` merging in the driver.
``traceexport``
    The merged span forest rendered as Chrome-trace / Perfetto JSON.
``benchreport``
    ``BENCH_*.json`` trajectory tables and regression gating for the
    ``repro-experiments bench-report`` subcommand.
"""

from __future__ import annotations

from .exporters import (
    RunReport,
    render_json,
    render_prometheus,
    registry_to_dict,
    write_metrics_file,
)
from .logging import configure_logging, current_log_level, get_logger, kv
from .sink import (
    TelemetrySink,
    WorkerSpan,
    WorkerTelemetry,
    capture_telemetry,
    get_sink,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disabled,
    get_registry,
)
from .tracing import SpanRecord, Tracer, get_tracer, trace_span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "disabled",
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "trace_span",
    "get_logger",
    "configure_logging",
    "current_log_level",
    "kv",
    "TelemetrySink",
    "WorkerSpan",
    "WorkerTelemetry",
    "capture_telemetry",
    "get_sink",
    "RunReport",
    "render_prometheus",
    "render_json",
    "registry_to_dict",
    "write_metrics_file",
]
