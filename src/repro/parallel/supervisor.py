"""Supervised parallel execution: every pool dispatch, able to survive.

The engines in this package used to ride a bare ``ProcessPoolExecutor``:
one worker segfault raised ``BrokenProcessPool`` and aborted the whole
run, a hung worker stalled it forever, and a driver crash lost every
completed shard.  :func:`run_supervised` is the shared dispatch layer
that closes those three holes for all four fan-out paths (shard ingest,
partition analysis, dataset generation, batch scanning):

* **Crash recovery.**  ``BrokenProcessPool`` no longer propagates: the
  dead pool is torn down (:func:`~repro.parallel.pool.kill_pool` — no
  orphan children), a fresh one is built, and the unfinished tasks are
  resubmitted.  Tasks that had *started* when the pool died are charged
  a failed attempt; tasks that were merely queued retry for free.
* **Hang detection.**  With a ``task_timeout``, each attempt touches a
  heartbeat file as it starts (workers locate the directory via the
  pool initializer — piggybacking the same worker-side channel the
  telemetry sink uses).  A started task whose heartbeat is older than
  the deadline is declared hung: the pool (hung worker included) is
  killed and rebuilt, the hung task is charged, innocents requeue free.
  Long-running task functions can call :func:`heartbeat` mid-task to
  push the deadline back.
* **Bounded retry, then graceful degradation — never silent.**  A task
  charged more than ``max_task_retries`` failed attempts is *poison*:
  it is recorded in the run's quarantine (when one is attached) and, by
  default, recovered by running the same function in-driver — where
  injected worker faults never fire, so the result is the one a healthy
  worker would have produced.  With ``serial_fallback=False`` the task
  is dropped with a ``None`` result instead; either way the outcome is
  visible in :class:`SupervisedRun` incidents, the CLI degradation
  footer, and the ``repro_supervisor_*`` metric families.
* **Crash-safe resume.**  With a :class:`~repro.resilience.journal.RunJournal`
  attached, every completed task's partial is persisted before the run
  moves on; ``resume=True`` replays journaled partials whose input
  fingerprint still matches instead of recomputing them.

**Determinism.**  None of this touches the byte-identical merge
guarantee: results come back in task-list order no matter which pool,
attempt, or journal replay produced each one, and the engines keep
merging partials in shard/partition/interval/batch order.  Ordinary
exceptions raised by the task function itself (a malformed shard in
strict mode, say) are *not* infrastructure failures: they are never
retried, and when several tasks fail this way the error of the
lowest-indexed task is re-raised — the same one a serial loop would
have hit first.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs import instruments
from ..obs.logging import get_logger, kv
from ..obs.tracing import trace_span
from ..resilience.journal import RunJournal
from ..resilience.quarantine import Quarantine
from . import pool as pool_mod

__all__ = ["SupervisorConfig", "SupervisorIncident", "SupervisedRun",
           "run_supervised", "resolve_config", "heartbeat",
           "worker_hang_seconds", "HANG_SECONDS_VAR"]

log = get_logger(__name__)

#: How long an injected ``worker_hang`` stalls (seconds).  Deliberately
#: far past any test deadline; overridable so chaos tests that *don't*
#: set a deadline still finish ("an undetected hang completes, slowly").
HANG_SECONDS_VAR = "REPRO_WORKER_HANG_SECONDS"

#: Exit status an injected worker crash dies with (mimics an abort).
_CRASH_EXIT_CODE = 87


def worker_hang_seconds() -> float:
    try:
        return float(os.environ.get(HANG_SECONDS_VAR, ""))
    except ValueError:
        return 60.0


@dataclass
class SupervisorConfig:
    """How one supervised dispatch should detect and absorb failures."""

    #: Per-task deadline in seconds (heartbeat-based hang detection);
    #: ``None`` disables the watchdog — and its polling — entirely.
    task_timeout: Optional[float] = None
    #: Failed pool attempts allowed per task beyond the first, before
    #: the task is quarantined as poison.
    max_task_retries: int = 2
    #: Run poison tasks in-driver as a last resort (default).  ``False``
    #: drops them with a ``None`` result instead — still never silent.
    serial_fallback: bool = True
    #: Fault plan whose ``worker_crash_rate``/``worker_hang_rate`` pool
    #: attempts draw from (chaos testing); ``None`` injects nothing.
    plan: Optional[FaultPlan] = None
    #: Crash-safe completion journal; with ``resume`` the dispatch
    #: replays journaled partials instead of recomputing them.
    journal: Optional[RunJournal] = None
    resume: bool = False
    #: Where poison tasks are recorded (rides the run's existing sink).
    quarantine: Optional[Quarantine] = None
    #: Watchdog poll interval (only meaningful with ``task_timeout``).
    poll_interval: float = 0.05


@dataclass(frozen=True, slots=True)
class SupervisorIncident:
    """One absorbed failure: what happened, to which task, on which try."""

    kind: str
    incident: str
    task_id: str
    attempt: int
    detail: str = ""


@dataclass
class SupervisedRun:
    """The outcome of one supervised dispatch.

    ``results`` is in task order; an entry is ``None`` only for a poison
    task dropped with ``serial_fallback=False``.
    """

    kind: str
    results: List[Any] = field(default_factory=list)
    incidents: List[SupervisorIncident] = field(default_factory=list)
    journal_replayed: int = 0
    fallbacks: int = 0
    quarantined: List[str] = field(default_factory=list)
    pool_rebuilds: int = 0

    @property
    def degraded(self) -> bool:
        """True when this dispatch did not run perfectly clean."""
        return bool(self.incidents or self.quarantined)

    def summary_lines(self) -> List[str]:
        """Human degradation/replay summary for the CLI footer."""
        replay = ([f"supervisor[{self.kind}]: {self.journal_replayed} "
                   f"task{'s' if self.journal_replayed != 1 else ''} "
                   f"served from the run journal"]
                  if self.journal_replayed else [])
        if not self.degraded:
            return replay
        counts: Dict[str, int] = {}
        for incident in self.incidents:
            counts[incident.incident] = counts.get(incident.incident, 0) + 1
        parts = [f"{name} ×{count}" for name, count in sorted(counts.items())]
        lines = replay + [f"supervisor[{self.kind}]: recovered from "
                 + ", ".join(parts)
                 + (f"; {self.pool_rebuilds} pool rebuild"
                    f"{'s' if self.pool_rebuilds != 1 else ''}"
                    if self.pool_rebuilds else "")]
        for task_id in self.quarantined:
            lines.append(f"  poison task {task_id}: "
                         + ("recovered in-driver" if self.fallbacks
                            else "dropped (serial fallback disabled)"))
        return lines

    def report(self) -> dict:
        """Diffable incident report (JSON-ready)."""
        return {
            "kind": self.kind,
            "tasks": len(self.results),
            "journal_replayed": self.journal_replayed,
            "pool_rebuilds": self.pool_rebuilds,
            "fallbacks": self.fallbacks,
            "quarantined": list(self.quarantined),
            "incidents": [{"incident": i.incident, "task": i.task_id,
                           "attempt": i.attempt, "detail": i.detail}
                          for i in self.incidents],
        }


def resolve_config(supervise: Optional[SupervisorConfig], *,
                   plan: Optional[FaultPlan] = None,
                   quarantine: Optional[Quarantine] = None,
                   ) -> SupervisorConfig:
    """The engine-side supervisor config: caller's copy + run defaults.

    The caller's object is never mutated; the engine's own ``plan`` /
    ``quarantine`` arguments fill any field the config left unset, so a
    plain ``ingest_shards(plan=..., quarantine=...)`` call is supervised
    with the same plan and sink it always threaded through the workers.
    """
    config = replace(supervise) if supervise is not None \
        else SupervisorConfig()
    if config.plan is None and plan is not None and plan.any():
        config.plan = plan
    if config.quarantine is None:
        config.quarantine = quarantine
    return config


# -- worker side ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _SupervisedCall:
    """One task attempt, picklable for the pool."""

    fn: Callable[[Any], Any]
    task: Any
    task_id: str
    attempt: int
    plan: Optional[FaultPlan]


def _beat_path(directory: str, task_id: str) -> str:
    digest = hashlib.sha1(task_id.encode("utf-8")).hexdigest()[:24]
    return os.path.join(directory, f"hb-{digest}")


def heartbeat(task_id: str) -> None:
    """Refresh ``task_id``'s liveness beat (no-op outside a deadline run).

    The supervisor touches it automatically at task start; a task
    function processing an unusually large unit can call this
    periodically to keep a tight ``task_timeout`` honest.
    """
    directory = pool_mod.heartbeat_dir()
    if directory is None:
        return
    try:
        with open(_beat_path(directory, task_id), "w") as handle:
            handle.write(f"{os.getpid()}\n")
    except OSError:  # pragma: no cover - beat loss degrades to a retry
        pass


def _supervised_call(call: _SupervisedCall) -> Any:
    """Run one attempt inside a worker: beat, maybe fault, then the task.

    The injected-fault draw happens only in real pool workers
    (:func:`~repro.parallel.pool.in_pool_worker`), keyed by
    ``(task id, attempt)`` — so a retry draws afresh, and the in-driver
    serial fallback (which calls ``fn`` directly, not this wrapper)
    can never crash the driver.
    """
    heartbeat(call.task_id)
    if call.plan is not None and pool_mod.in_pool_worker():
        fault = FaultInjector(call.plan).worker_fault(call.task_id,
                                                      call.attempt)
        if fault == "crash":
            os._exit(_CRASH_EXIT_CODE)
        elif fault == "hang":
            time.sleep(worker_hang_seconds())
    return call.fn(call.task)


# -- driver side ---------------------------------------------------------------


def run_supervised(kind: str, tasks: Sequence[Any],
                   fn: Callable[[Any], Any], *, jobs: int,
                   config: Optional[SupervisorConfig] = None,
                   task_ids: Optional[Callable[[Any, int], str]] = None,
                   fingerprint_fn: Optional[Callable[[Any], str]] = None,
                   validate_fn: Optional[Callable[[Any, Any], bool]] = None,
                   shared: Any = None,
                   ) -> SupervisedRun:
    """Dispatch ``fn`` over ``tasks``, supervised; results in task order.

    ``jobs <= 1`` runs inline (no pool, no fault injection — identical
    to the engines' historical serial path) but still honours the
    journal.  ``fingerprint_fn`` derives each task's input fingerprint
    for journaling; ``validate_fn(task, payload)`` may veto a journal
    replay whose side-effect files have vanished (generation shards).

    ``shared`` is one object every task of this dispatch reads through
    :func:`~repro.parallel.pool.shared_state` instead of carrying it:
    pool workers (rebuilt ones included) receive it through the pool
    initializer, and the inline path and the serial fallback install it
    in-process while they run.  It is never part of a task, a task id
    or a journal fingerprint.
    """
    config = config or SupervisorConfig()
    tasks = list(tasks)
    run = SupervisedRun(kind=kind, results=[None] * len(tasks))
    ids = [task_ids(task, i) if task_ids else f"{kind}:{i:04d}"
           for i, task in enumerate(tasks)]
    done = [False] * len(tasks)
    journal = config.journal
    fingerprints = [fingerprint_fn(task) if fingerprint_fn else ""
                    for task in tasks]

    if journal is not None and config.resume:
        journaled = journal.completed()
        for i, task in enumerate(tasks):
            recorded = journaled.get(ids[i])
            if recorded is None:
                continue
            if recorded != fingerprints[i]:
                instruments.SUPERVISOR_JOURNAL.inc(result="stale")
                continue
            hit, payload = journal.load_partial(kind, fingerprints[i])
            if hit and (validate_fn is None or validate_fn(task, payload)):
                run.results[i] = payload
                done[i] = True
                run.journal_replayed += 1
                instruments.SUPERVISOR_JOURNAL.inc(result="replayed")
                instruments.SUPERVISOR_TASKS.inc(kind=kind,
                                                 outcome="replayed")
            else:
                instruments.SUPERVISOR_JOURNAL.inc(result="stale")
        if run.journal_replayed:
            log.info("run journal replayed", extra=kv(
                kind=kind, replayed=run.journal_replayed,
                remaining=done.count(False)))

    def complete(i: int, payload: Any, *, outcome: str = "completed") -> None:
        run.results[i] = payload
        done[i] = True
        instruments.SUPERVISOR_TASKS.inc(kind=kind, outcome=outcome)
        if journal is not None:
            journal.record(kind, ids[i], fingerprints[i], payload)

    pending = [i for i in range(len(tasks)) if not done[i]]
    if not pending:
        return run

    with pool_mod.sharing(shared):
        if jobs <= 1:
            with trace_span(f"supervised_{kind}", tasks=len(tasks), jobs=1):
                for i in pending:
                    complete(i, fn(tasks[i]))
        else:
            _run_pool(kind, tasks, fn, ids=ids, pending=pending, jobs=jobs,
                      config=config, run=run, complete=complete,
                      shared=shared)
    return run


def _run_pool(kind: str, tasks: List[Any], fn: Callable[[Any], Any], *,
              ids: List[str], pending: List[int], jobs: int,
              config: SupervisorConfig, run: SupervisedRun,
              complete: Callable[..., None], shared: Any) -> None:
    """The supervised pool loop: submit, watch, recover, drain."""
    # attempts[i] is the attempt number the *next* submission of task i
    # will carry — it keys the injector draw, so a free (uncharged)
    # resubmission of an innocent victim replays the same draw.
    attempts = [1] * len(tasks)
    max_attempts = 1 + max(0, config.max_task_retries)
    heartbeat_root = (tempfile.mkdtemp(prefix="repro-supervise-")
                      if config.task_timeout is not None else None)
    pool = pool_mod.make_pool(jobs, heartbeat=heartbeat_root,
                              shared=shared)
    futures: Dict[Future, int] = {}
    errors: Dict[int, BaseException] = {}
    poison: List[int] = []

    def clear_beat(i: int) -> None:
        if heartbeat_root is not None:
            try:
                os.remove(_beat_path(heartbeat_root, ids[i]))
            except OSError:
                pass

    def started(i: int) -> bool:
        if heartbeat_root is None:
            return True  # no heartbeats: assume started (conservative)
        return os.path.exists(_beat_path(heartbeat_root, ids[i]))

    def beat_age(i: int) -> Optional[float]:
        try:
            return time.time() - os.path.getmtime(
                _beat_path(heartbeat_root, ids[i]))
        except OSError:
            return None

    def submit(i: int) -> None:
        clear_beat(i)
        call = _SupervisedCall(fn=fn, task=tasks[i], task_id=ids[i],
                               attempt=attempts[i], plan=config.plan)
        futures[pool.submit(_supervised_call, call)] = i

    def charge(i: int, incident: str, detail: str = "") -> bool:
        """Count one failed attempt; True when the task may retry."""
        run.incidents.append(SupervisorIncident(
            kind=kind, incident=incident, task_id=ids[i],
            attempt=attempts[i], detail=detail))
        instruments.SUPERVISOR_INCIDENTS.inc(kind=kind, incident=incident)
        log.warning("supervised task attempt failed", extra=kv(
            kind=kind, task=ids[i], attempt=attempts[i],
            incident=incident, detail=detail))
        attempts[i] += 1
        if attempts[i] > max_attempts:
            poison.append(i)
            return False
        return True

    def rebuild_pool(reason: str) -> None:
        nonlocal pool
        pool_mod.kill_pool(pool)
        run.pool_rebuilds += 1
        instruments.SUPERVISOR_POOL_REBUILDS.inc(kind=kind)
        log.warning("worker pool rebuilt", extra=kv(
            kind=kind, reason=reason, rebuilds=run.pool_rebuilds))
        pool = pool_mod.make_pool(jobs, heartbeat=heartbeat_root,
                                  shared=shared)

    try:
        with trace_span(f"supervised_{kind}", tasks=len(tasks), jobs=jobs):
            for i in pending:
                submit(i)
            while futures:
                timeout = (config.poll_interval
                           if config.task_timeout is not None else None)
                finished, _ = wait(list(futures), timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                requeue: List[int] = []
                broken: List[int] = []
                for future in finished:
                    i = futures.pop(future)
                    exc = future.exception()
                    if exc is None:
                        complete(i, future.result())
                        clear_beat(i)
                    elif isinstance(exc, BrokenProcessPool):
                        broken.append(i)
                    elif isinstance(exc, Exception):
                        # The task itself failed — not infrastructure.
                        # Never retried; surfaced after the drain (the
                        # lowest-indexed error wins, like a serial loop).
                        errors[i] = exc
                        clear_beat(i)
                    else:
                        raise exc  # KeyboardInterrupt etc. — bail now
                if broken:
                    # The pool is dead: every other outstanding future
                    # is doomed too.  Charge what had started; what was
                    # only queued retries free.
                    for future, i in list(futures.items()):
                        del futures[future]
                        broken.append(i)
                    charged = [i for i in broken if started(i)] or broken
                    for i in sorted(broken):
                        if i in charged:
                            if charge(i, "worker_crash",
                                      "pool broke while task was running"):
                                requeue.append(i)
                        else:
                            requeue.append(i)
                    rebuild_pool("worker_crash")
                elif config.task_timeout is not None and futures:
                    hung = [i for future, i in futures.items()
                            if started(i)
                            and (beat_age(i) or 0) > config.task_timeout]
                    if hung:
                        # Can't kill one worker out of a live pool
                        # safely — kill the pool, requeue the innocents.
                        victims = [i for future, i in futures.items()
                                   if i not in hung]
                        futures.clear()
                        for i in sorted(hung):
                            if charge(i, "worker_hang",
                                      f"no heartbeat progress in "
                                      f"{config.task_timeout:g}s"):
                                requeue.append(i)
                        requeue.extend(sorted(victims))
                        rebuild_pool("worker_hang")
                for i in requeue:
                    submit(i)

        if errors:
            raise errors[min(errors)]

        for i in sorted(poison):
            run.quarantined.append(ids[i])
            instruments.SUPERVISOR_TASKS.inc(kind=kind, outcome="quarantined")
            if config.quarantine is not None:
                config.quarantine.add(
                    source=f"supervisor:{kind}", line=i,
                    reason="poison_task",
                    detail=f"{ids[i]} failed {attempts[i] - 1} pool "
                           f"attempts",
                    raw=ids[i])
            if config.serial_fallback:
                run.fallbacks += 1
                run.incidents.append(SupervisorIncident(
                    kind=kind, incident="serial_fallback", task_id=ids[i],
                    attempt=attempts[i],
                    detail="poison task recovered in-driver"))
                instruments.SUPERVISOR_INCIDENTS.inc(
                    kind=kind, incident="serial_fallback")
                log.warning("poison task: in-driver serial fallback",
                            extra=kv(kind=kind, task=ids[i]))
                with trace_span("supervisor_fallback", task=ids[i]):
                    complete(i, fn(tasks[i]), outcome="fallback")
            else:
                log.warning("poison task dropped (serial fallback "
                            "disabled)", extra=kv(kind=kind, task=ids[i]))
                instruments.SUPERVISOR_TASKS.inc(kind=kind,
                                                 outcome="dropped")
    finally:
        pool_mod.kill_pool(pool)
        if heartbeat_root is not None:
            shutil.rmtree(heartbeat_root, ignore_errors=True)
