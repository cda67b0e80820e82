"""Self-time tracing from outside the program, by patching looked-up names.

A :class:`Tracer` replaces a function at the name its caller looks up
(``repro.parallel.worker.read_zeek_log_columnar``, a class attribute such
as ``ZeekLogWriter.write_row``) with a wrapper that records a span, and
puts the original back on :meth:`Tracer.restore`.  A span's *self* time is
its duration minus the part covered by spans nested inside it, so the
driver's self times add up to the wall clock of whatever the spans cover.

Pool workers are fork-started, so they inherit wrappers installed before
the pool starts.  A wrapped *task* function (the unit a pool worker runs)
resets the inherited state when it starts in a worker and, when it ends,
writes that task's totals to one JSON file in the hand-off directory;
:meth:`Tracer.collect` folds those files into the worker-side totals.

Two kinds of wrapper exist:

* spans (:meth:`span`, :meth:`span_iter`, :meth:`task`) time calls;
* counters (:meth:`count`) record calls and distinct inputs without
  timing them, for memo hit ratios at hot functions whose nesting inside
  a span must not move that span's self time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = ["Tracer", "Totals"]

_perf = time.perf_counter


class Totals:
    """Self seconds, calls, counters, distinct keys and unit durations."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.distinct: Dict[str, Set[str]] = {}
        #: unit kind -> durations of the pool tasks of that kind.
        self.units: Dict[str, List[float]] = {}

    def add_counter(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def merge(self, other: "Totals") -> None:
        for name, value in other.self_s.items():
            self.self_s[name] = self.self_s.get(name, 0.0) + value
        for name, value in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + value
        for name, value in other.counters.items():
            self.add_counter(name, value)
        for name, keys in other.distinct.items():
            self.distinct.setdefault(name, set()).update(keys)
        for kind, durations in other.units.items():
            self.units.setdefault(kind, []).extend(durations)

    def to_json(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls,
                "counters": self.counters,
                "distinct": {k: sorted(v) for k, v in self.distinct.items()},
                "units": self.units}

    @classmethod
    def from_json(cls, data: dict) -> "Totals":
        totals = cls()
        totals.self_s = {k: float(v) for k, v in data["self_s"].items()}
        totals.calls = {k: int(v) for k, v in data["calls"].items()}
        totals.counters = dict(data["counters"])
        totals.distinct = {k: set(v) for k, v in data["distinct"].items()}
        totals.units = {k: list(v) for k, v in data["units"].items()}
        return totals


class Tracer:
    """Installs span and counter wrappers; accumulates per-process totals."""

    def __init__(self, handoff_dir: str):
        self.handoff_dir = handoff_dir
        self.driver_pid = os.getpid()
        self.totals = Totals()
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._task_seq = 0

    # -- span accounting -------------------------------------------------------

    def _enter(self, metric: str) -> None:
        self._stack.append([metric, _perf(), 0.0])

    def _exit(self) -> float:
        metric, start, child = self._stack.pop()
        duration = _perf() - start
        totals = self.totals
        totals.self_s[metric] = totals.self_s.get(metric, 0.0) \
            + duration - child
        totals.calls[metric] = totals.calls.get(metric, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def in_worker(self) -> bool:
        return os.getpid() != self.driver_pid

    # -- patching --------------------------------------------------------------

    def _replace(self, owner: Any, attr: str,
                 make: Callable[[Callable], Callable]) -> Callable:
        """Swap ``owner.attr`` for ``make(original)``, keeping descriptors.

        Class attributes are read from ``__dict__`` so a classmethod or
        staticmethod is unwrapped, wrapped, and re-wrapped in its own
        descriptor type; :meth:`restore` puts the raw object back.
        """
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        descriptor = type(raw) if isinstance(
            raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if descriptor else raw
        wrapper = functools.wraps(function)(make(function))
        setattr(owner, attr, descriptor(wrapper) if descriptor else wrapper)
        self._patches.append((owner, attr, raw))
        return wrapper

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def span(self, owner: Any, attr: str, metric: str, *,
             key: Optional[Callable[..., str]] = None,
             on_result: Optional[Callable[[Totals, Any], None]] = None
             ) -> Callable:
        """Time every call of ``owner.attr`` as ``metric`` self seconds.

        ``key(*args)`` also records the call's distinct input under
        ``metric``; ``on_result(totals, result)`` derives counters.
        """
        enter, leave = self._enter, self._exit

        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if key is not None:
                    self.totals.distinct.setdefault(metric, set()).add(
                        key(*args))
                enter(metric)
                try:
                    result = function(*args, **kwargs)
                finally:
                    leave()
                if on_result is not None:
                    on_result(self.totals, result)
                return result
            return wrapper
        return self._replace(owner, attr, make)

    def tap(self, owner: Any, attr: str, sink: List[Any]) -> Callable:
        """Append every return value of ``owner.attr`` to ``sink``."""
        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                sink.append(result)
                return result
            return wrapper
        return self._replace(owner, attr, make)

    def span_iter(self, owner: Any, attr: str, metric: str) -> Callable:
        """Time each step of the iterator ``owner.attr`` returns."""
        enter, leave = self._enter, self._exit

        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                iterator = iter(function(*args, **kwargs))

                def steps():
                    while True:
                        enter(metric)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            leave()
                            return
                        except BaseException:
                            leave()
                            raise
                        leave()
                        yield item
                return steps()
            return wrapper
        return self._replace(owner, attr, make)

    def count(self, owner: Any, attr: str, site: str,
              key: Optional[Callable[..., str]] = None) -> Callable:
        """Count calls of ``owner.attr`` (and distinct ``key(*args)``)."""
        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                totals = self.totals
                totals.calls[site] = totals.calls.get(site, 0) + 1
                if key is not None:
                    totals.distinct.setdefault(site, set()).add(key(*args))
                return function(*args, **kwargs)
            return wrapper
        return self._replace(owner, attr, make)

    def task(self, owners: List[Any], attr: str, kind: str,
             metric: str) -> Callable:
        """Wrap a pool task function, installed under every owner.

        The same wrapper object goes to each owner (the defining module
        first), so the pool pickles it by reference under the original's
        qualified name and a worker unpickles the wrapper itself.
        """
        def make(function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                if not self.in_worker():
                    enter = _perf()
                    self._enter(metric)
                    try:
                        return function(*args, **kwargs)
                    finally:
                        self._exit()
                        self.totals.units.setdefault(kind, []).append(
                            _perf() - enter)
                # A forked worker inherits the driver's open spans and
                # totals: start this task from nothing.
                self._stack = []
                self.totals = Totals()
                self._enter(metric)
                try:
                    return function(*args, **kwargs)
                finally:
                    duration = self._exit()
                    self.totals.units.setdefault(kind, []).append(duration)
                    self._write_handoff(kind)
            return wrapper
        wrapper = self._replace(owners[0], attr, make)
        for owner in owners[1:]:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        return wrapper

    # -- worker hand-off -------------------------------------------------------

    def _write_handoff(self, kind: str) -> None:
        self._task_seq += 1
        name = f"{kind}-{os.getpid()}-{self._task_seq}.json"
        path = os.path.join(self.handoff_dir, name)
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.totals.to_json(), handle)
        os.replace(path + ".tmp", path)

    def collect(self) -> Totals:
        """Worker-side totals from every hand-off file written so far."""
        workers = Totals()
        for name in sorted(os.listdir(self.handoff_dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.handoff_dir, name),
                          encoding="utf-8") as handle:
                    workers.merge(Totals.from_json(json.load(handle)))
        return workers
