"""Per-dispatch shared state: one object every task reads, none carries.

``run_supervised(..., shared=...)`` hands pool workers the object once,
through the pool initializer — again to a pool rebuilt after a crash —
and installs it in-process for the inline path and the serial fallback.
The tasks here are bare integers, so whatever a task function reads
through ``shared_state()`` cannot have travelled inside a task.
"""

from __future__ import annotations

import os

from repro.faults import FaultPlan
from repro.parallel.pool import shared_state
from repro.parallel.supervisor import SupervisorConfig, run_supervised

SHARED = {"token": "shared-state-token", "payload": list(range(1000))}

#: Crashes task ``shared:0003`` on its first pool attempt only.
CRASH_ONE = FaultPlan(seed="shared-114", worker_crash_rate=0.3)


def read_shared(task: int):
    """What one task saw: its pid, the token, and the object identity."""
    state = shared_state()
    return (task, os.getpid(), state and state["token"],
            state is SHARED)


def _ids(task, i):
    return f"shared:{i:04d}"


def _dispatch(jobs, config=None):
    return run_supervised("shared", list(range(4)), read_shared, jobs=jobs,
                          config=config, task_ids=_ids, shared=SHARED)


class TestSharedState:
    def test_pool_workers_read_it_without_it_in_any_task(self):
        run = _dispatch(jobs=2)
        assert [task for task, *_ in run.results] == [0, 1, 2, 3]
        assert {token for _, _, token, _ in run.results} == \
            {SHARED["token"]}
        assert os.getpid() not in {pid for _, pid, _, _ in run.results}
        assert shared_state() is None  # never left installed in-driver

    def test_a_pool_rebuilt_after_a_crash_receives_it_again(self):
        run = _dispatch(jobs=2, config=SupervisorConfig(
            plan=CRASH_ONE, max_task_retries=3))
        assert any(incident.incident == "worker_crash"
                   and incident.task_id == "shared:0003"
                   for incident in run.incidents)
        assert run.pool_rebuilds >= 1
        assert not run.fallbacks  # the crashed task reran in a new pool
        assert {token for _, _, token, _ in run.results} == \
            {SHARED["token"]}
        assert os.getpid() not in {pid for _, pid, _, _ in run.results}

    def test_inline_dispatch_installs_the_same_object(self):
        run = _dispatch(jobs=1)
        assert all(pid == os.getpid() and same
                   for _, pid, _, same in run.results)
        assert shared_state() is None

    def test_serial_fallback_installs_the_same_object(self):
        run = _dispatch(jobs=2, config=SupervisorConfig(
            plan=FaultPlan(seed="shared-all", worker_crash_rate=1.0),
            max_task_retries=0))
        assert run.fallbacks == 4
        assert all(pid == os.getpid() and same
                   for _, pid, _, same in run.results)
        assert shared_state() is None
