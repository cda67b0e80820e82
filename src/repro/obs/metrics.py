"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The paper's analyzer ran once over a year of logs; the ROADMAP wants it to
run continuously over campus-scale traffic.  That requires knowing where a
731k-chain run spends its time and how often each cache hits — so every
subsystem increments metrics here, and :mod:`repro.obs.exporters` renders
the registry for Prometheus scrapes or JSON diffing.

Design rules:

* **Deterministic** — metric and label *values* derive only from the data
  processed; two runs over the same seed produce identical counters.
  Durations live in histograms/spans and are the only thing allowed to
  vary.
* **Fixed buckets** — histograms use a declared bucket list (no dynamic
  resizing), so exports are diffable and mergeable across shards.
* **Thread-safe** — a lock per child; the free-threaded sharded pipeline
  planned by the ROADMAP can increment from worker threads.
* **Cheap when off** — ``registry.enabled = False`` (or the
  :func:`disabled` context manager) turns every increment into one
  attribute check, so the overhead benchmark can measure a clean baseline.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "disabled",
    "DEFAULT_BUCKETS",
]

#: Default latency buckets (seconds): sub-millisecond parses up to
#: multi-minute full-campus runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Child:
    """One (metric, label-values) time series."""

    __slots__ = ("_family", "_lock", "_value")

    def __init__(self, family: "_MetricFamily"):
        self._family = family
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def zero(self) -> None:
        with self._lock:
            self._value = 0.0


class _CounterChild(_Child):
    def inc(self, amount: float = 1.0) -> None:
        if not self._family.registry.enabled:
            return
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount


class _GaugeChild(_Child):
    def set(self, value: float) -> None:
        if not self._family.registry.enabled:
            return
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if not self._family.registry.enabled:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class _HistogramChild(_Child):
    __slots__ = ("_counts", "_sum", "_count")

    def __init__(self, family: "_MetricFamily"):
        super().__init__(family)
        self._counts = [0] * len(family.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not self._family.registry.enabled:
            return
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self._family.buckets):
                if value <= bound:
                    self._counts[i] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Cumulative per-bucket counts, Prometheus style (+Inf implied)."""
        return list(self._counts)

    def zero(self) -> None:
        with self._lock:
            self._counts = [0] * len(self._counts)
            self._sum = 0.0
            self._count = 0


_CHILD_TYPES = {"counter": _CounterChild, "gauge": _GaugeChild,
                "histogram": _HistogramChild}


class _MetricFamily:
    """A named metric plus all its labelled children."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.registry = registry
        self.name = _check_name(name)
        self.help = help
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames: Tuple[str, ...] = tuple(labelnames)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Child] = {}

    def labels(self, **labelvalues: object) -> _Child:
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(
                    key, _CHILD_TYPES[self.kind](self))
        return child

    def reset_values(self) -> None:
        """Zero every child in place (handles held by callers stay valid)."""
        with self._lock:
            children = list(self._children.values())
        for child in children:
            child.zero()

    def samples(self) -> list[tuple[Tuple[str, ...], _Child]]:
        """(label values, child) pairs in deterministic (sorted) order."""
        with self._lock:
            return sorted(self._children.items())


class Counter(_MetricFamily):
    """Monotonically increasing count (events, rows, cache hits)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labelvalues: object) -> None:
        self.labels(**labelvalues).inc(amount)

    def value(self, **labelvalues: object) -> float:
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        return child.value if child is not None else 0.0


class Gauge(_MetricFamily):
    """A value that can go up and down (sizes, rates, last-run stats)."""

    kind = "gauge"

    def set(self, value: float, **labelvalues: object) -> None:
        self.labels(**labelvalues).set(value)

    def inc(self, amount: float = 1.0, **labelvalues: object) -> None:
        self.labels(**labelvalues).inc(amount)

    def value(self, **labelvalues: object) -> float:
        key = tuple(str(labelvalues[n]) for n in self.labelnames)
        child = self._children.get(key)
        return child.value if child is not None else 0.0


class Histogram(_MetricFamily):
    """Fixed-bucket distribution (durations, chain lengths)."""

    kind = "histogram"

    def observe(self, value: float, **labelvalues: object) -> None:
        self.labels(**labelvalues).observe(value)


class MetricsRegistry:
    """Get-or-create home for every metric family in the process.

    Families are identified by name; asking twice with the same name
    returns the same family (and raises if the kind or labels disagree,
    which would otherwise silently fork a metric).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}
        #: When False every inc/set/observe is a no-op.
        self.enabled = True

    def _get_or_create(self, cls: type, name: str, help: str,
                       labelnames: Sequence[str],
                       buckets: Sequence[float] = DEFAULT_BUCKETS) -> _MetricFamily:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(self, name, help, labelnames, buckets)
                self._families[name] = family
                return family
        if type(family) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}")
        if family.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{family.labelnames}, asked for {tuple(labelnames)}")
        return family

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames,
                                   buckets)  # type: ignore[return-value]

    def families(self) -> list[_MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get_family(self, name: str) -> Optional[_MetricFamily]:
        """The family registered under ``name``, or None.

        Lookup only — never creates.  The telemetry sink uses this to
        replay worker deltas into whatever families the driver already
        declared, without guessing kinds or label sets.
        """
        with self._lock:
            return self._families.get(name)

    def reset(self) -> None:
        """Zero every time series (families and label children stay).

        Values are zeroed in place rather than dropped so module-level
        child handles (see :mod:`repro.obs.instruments`) stay live.  Run
        this at the start of a CLI invocation so the export reflects
        exactly one run — the acceptance criterion that two same-seed runs
        emit identical names/labels/values depends on it.
        """
        for family in self.families():
            family.reset_values()

    def snapshot(self) -> dict:
        """Deterministic plain-dict view of every time series."""
        out: dict = {}
        for family in self.families():
            entry: dict = {"kind": family.kind, "help": family.help,
                           "labelnames": list(family.labelnames),
                           "samples": []}
            for labelvalues, child in family.samples():
                labels = dict(zip(family.labelnames, labelvalues))
                if family.kind == "histogram":
                    assert isinstance(child, _HistogramChild)
                    entry["samples"].append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "buckets": dict(zip(
                            (str(b) for b in family.buckets),
                            child.bucket_counts())),
                    })
                else:
                    entry["samples"].append(
                        {"labels": labels, "value": child.value})
            out[family.name] = entry
        return out


#: The process-wide default registry every instrumented module uses.
_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _DEFAULT


@contextmanager
def disabled(registry: Optional[MetricsRegistry] = None) -> Iterator[None]:
    """Temporarily turn off all metric recording (baseline benchmarking)."""
    registry = registry or _DEFAULT
    previous = registry.enabled
    registry.enabled = False
    try:
        yield
    finally:
        registry.enabled = previous
