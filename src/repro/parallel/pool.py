"""Shared worker-pool plumbing for every parallel engine.

Each engine used to repeat the same two fragments: the jobs clamp
(request, capped to CPU count and unit count) and a bare
``ProcessPoolExecutor``.  Centralising them here buys two things:

* **One clamp, one escape hatch.**  :func:`clamp_jobs` applies the
  request → ``min(cpus, units)`` rule everywhere, and honours
  ``REPRO_PARALLEL_NO_CPU_CLAMP=1`` to skip the CPU cap (the unit cap
  always holds).  The override exists for telemetry and equivalence
  tests that must demonstrate genuinely distinct worker processes — a
  ``--jobs 4`` trace with four pids — even on a 1-CPU CI box, where the
  perf-motivated CPU cap would silently collapse the pool to one.
* **Workers that log like the driver.**  ``ProcessPoolExecutor`` under
  the spawn start method gives workers a pristine interpreter: the
  driver's ``--log-level``/``REPRO_LOG_LEVEL`` configuration is lost
  and worker records fall back to WARNING.  :func:`make_pool` installs
  an initializer that re-applies the driver's effective level in every
  worker, so ``log.debug`` lines from shard readers actually surface.

The initializer also stamps two process-globals the supervised executor
(:mod:`repro.parallel.supervisor`) reads from inside workers: the
"I am a pool worker" flag (:func:`in_pool_worker`) that gates injected
worker-crash/worker-hang faults to pool attempts only (the in-driver
serial fallback must never re-draw them), and the heartbeat directory
(:func:`heartbeat_dir`) workers touch beat files under so the driver
can tell a *hung* task from a merely *queued* one.

**Per-dispatch shared state.**  A third global carries one object that
every task of a dispatch reads through :func:`shared_state` — the
ingest engine's fingerprint positions, the enrichment engine's
certificates and registry — instead of each task pickling its own
copy.  Workers receive it through the initializer's ``initargs``: a
fork-started worker inherits it with zero copies, a spawn or
forkserver worker unpickles it once.  In-process dispatch installs it
for the duration with :func:`sharing`.

**A frozen heap to fork from.**  A fork-started worker inherits the
driver's heap, and a full collection there would walk every inherited
object, writing to its header and so copying the page it sits on.
:func:`make_pool` therefore calls ``gc.freeze()`` before the pool's
workers exist: the inherited objects move to the permanent generation,
which no collection examines, and the generation counts restart, so
workers run young collections only.  The pool's shutdown — whether
``kill_pool``, a supervisor's rebuild or ``with`` — releases its hold,
and the last hold released calls ``gc.unfreeze()``.  A heap frozen by
someone else before the first hold is left as it is, pools taking no
hold: CPython 3.12.1, for one, starts with 375 of its own tuples frozen.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..obs.logging import configure_logging, current_log_level

__all__ = ["NO_CPU_CLAMP_VAR", "clamp_jobs", "make_pool", "kill_pool",
           "in_pool_worker", "heartbeat_dir", "shared_state", "sharing"]

#: Set to ``1``/``true`` to lift the CPU-count cap on worker pools.
NO_CPU_CLAMP_VAR = "REPRO_PARALLEL_NO_CPU_CLAMP"

#: Worker-process globals, set by the pool initializer (never the driver).
_IN_POOL_WORKER = False
_HEARTBEAT_DIR: Optional[str] = None

#: The current dispatch's shared state: set by the pool initializer in
#: workers, and by :func:`sharing` for in-process dispatch.
_SHARED: Any = None

#: Live pools holding the driver heap frozen (see :func:`make_pool`).
_FREEZE_HOLDS = 0


def _cpu_clamp_lifted() -> bool:
    return os.environ.get(NO_CPU_CLAMP_VAR, "").lower() in ("1", "true", "yes")


def clamp_jobs(requested: Optional[int], units: int) -> tuple[int, int]:
    """``(requested, effective)`` worker counts for ``units`` work items.

    ``requested=None`` asks for one worker per CPU.  The effective count
    is capped at the CPU count (extra workers past the cores only add
    pool and pickling overhead) and at the unit count (no idle
    workers); see :data:`NO_CPU_CLAMP_VAR` for the test-only override
    of the first cap.
    """
    if requested is None:
        requested = os.cpu_count() or 1
    requested = max(1, requested)
    effective = min(requested, max(1, units))
    if not _cpu_clamp_lifted():
        effective = min(effective, os.cpu_count() or 1)
    return requested, max(1, effective)


def in_pool_worker() -> bool:
    """True inside a :func:`make_pool` worker process."""
    return _IN_POOL_WORKER


def heartbeat_dir() -> Optional[str]:
    """The supervisor's heartbeat directory, inside a worker (else None)."""
    return _HEARTBEAT_DIR


def shared_state() -> Any:
    """The shared state of the dispatch this task belongs to (or None)."""
    return _SHARED


@contextmanager
def sharing(shared: Any) -> Iterator[None]:
    """Install ``shared`` in this process for the duration (in-process
    dispatch: the inline path and the serial fallback)."""
    global _SHARED
    previous, _SHARED = _SHARED, shared
    try:
        yield
    finally:
        _SHARED = previous


def _bootstrap_worker(level_name: str, heartbeat: Optional[str] = None,
                      shared: Any = None) -> None:
    """Runs once in each fresh worker: mirror the driver's logging and
    record the pool-worker globals the supervisor and tasks consult."""
    global _IN_POOL_WORKER, _HEARTBEAT_DIR, _SHARED
    _IN_POOL_WORKER = True
    _HEARTBEAT_DIR = heartbeat
    _SHARED = shared
    configure_logging(level=level_name, force=True)


def _hold_freeze() -> bool:
    """Freeze the heap for one more pool; False when the pool takes no
    hold (its workers do not fork, or someone else froze the heap)."""
    global _FREEZE_HOLDS
    if multiprocessing.get_start_method() != "fork" or (
            not _FREEZE_HOLDS and gc.get_freeze_count()):
        return False
    gc.freeze()
    _FREEZE_HOLDS += 1
    return True


def _release_freeze() -> None:
    global _FREEZE_HOLDS
    _FREEZE_HOLDS -= 1
    if not _FREEZE_HOLDS:
        gc.unfreeze()


class _Pool(ProcessPoolExecutor):
    """A process pool that releases its heap-freeze hold on shutdown."""

    _holds_freeze = False

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        try:
            super().shutdown(wait=wait, cancel_futures=cancel_futures)
        finally:
            if self._holds_freeze:
                self._holds_freeze = False
                _release_freeze()


def make_pool(workers: int, *, heartbeat: Optional[str] = None,
              shared: Any = None) -> ProcessPoolExecutor:
    """A process pool whose workers inherit the driver's log level, the
    dispatch's ``shared`` state and, when forked, a frozen heap."""
    pool = _Pool(max_workers=workers, initializer=_bootstrap_worker,
                 initargs=(current_log_level(), heartbeat, shared))
    pool._holds_freeze = _hold_freeze()
    return pool


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: no draining, no orphans.

    ``shutdown(wait=True)`` would block behind a hung worker forever,
    and ``shutdown(wait=False)`` alone leaves live children behind — a
    supervisor recovering from a hang needs both halves: cancel what is
    queued, terminate every worker process, and reap it (escalating to
    SIGKILL for workers that ignore SIGTERM, e.g. one wedged in
    uninterruptible I/O).  Safe to call on an already-broken or
    already-shut-down pool.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive: pool already broken
        pass
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - SIGTERM almost always lands
            process.kill()
            process.join(timeout=5.0)
