"""Pool workers fork from a frozen driver heap.

``make_pool`` calls ``gc.freeze()`` before its fork-started workers
exist, so the objects a worker inherits sit in the permanent generation
and the generation counts restart: workers run young collections only,
and none of them walks (and so copies) the inherited heap.  Every way a
pool ends — a clean dispatch, a rebuild after a worker crash, a task
exception, ``with`` — gives its hold back, and the last hold released
unfreezes the heap.
"""

from __future__ import annotations

import gc
import multiprocessing
import os

import pytest

from repro.faults import FaultPlan
from repro.parallel import discover_shards, generate_dataset, ingest_shards
from repro.parallel.pool import NO_CPU_CLAMP_VAR, in_pool_worker, make_pool
from repro.parallel.supervisor import SupervisorConfig, run_supervised

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only fork-started workers inherit the driver heap")

#: CPython 3.12.1 starts with 375 tuples of its own in the permanent
#: generation; pools take no hold over a heap frozen before them.
needs_unfrozen_start = pytest.mark.skipif(
    gc.get_freeze_count() != 0,
    reason="the interpreter froze objects itself, so pools take no hold")


def square(task):
    return task * task


def explode(task):
    raise ValueError(f"bad:{task}")


@pytest.fixture()
def balanced():
    """The freeze count ends where it started."""
    start = gc.get_freeze_count()
    yield
    assert gc.get_freeze_count() == start


@needs_unfrozen_start
class TestWorkersInheritAFrozenHeap:
    def test_ingest_tasks_run_no_full_collection(self, tmp_path,
                                                 monkeypatch, balanced):
        monkeypatch.setenv(NO_CPU_CLAMP_VAR, "1")
        corpus = tmp_path / "corpus"
        generate_dataset(str(corpus), seed="frozen", scale="small", jobs=1)
        logs = tmp_path / "gc"
        logs.mkdir()

        def record(phase, info):
            # Fork-started workers inherit the callback.
            if phase == "start" and in_pool_worker():
                with open(logs / str(os.getpid()), "a") as handle:
                    handle.write(f"{info['generation']} "
                                 f"{gc.get_freeze_count()}\n")

        gc.callbacks.append(record)
        try:
            result = ingest_shards(discover_shards(str(corpus)), jobs=2)
        finally:
            gc.callbacks.remove(record)
        assert result.jobs == 2 and result.chains
        collections = [line.split() for path in logs.iterdir()
                       for line in path.read_text().splitlines()]
        assert collections  # the workers did collect
        assert [gen for gen, _ in collections if gen == "2"] == []
        assert all(int(frozen) > 0 for _, frozen in collections)


class TestFreezeIsBalanced:
    @needs_unfrozen_start
    def test_pool_holds_the_freeze_until_shutdown(self, balanced):
        with make_pool(2) as pool:
            assert gc.get_freeze_count() > 0
            assert pool.submit(square, 3).result() == 9
            nested = make_pool(1)
            nested.shutdown()
            assert gc.get_freeze_count() > 0  # the outer hold remains

    def test_clean_dispatch(self, balanced):
        run = run_supervised("t", list(range(4)), square, jobs=2)
        assert run.results == [0, 1, 4, 9]

    def test_inline_dispatch(self, balanced):
        assert run_supervised("t", [2], square, jobs=1).results == [4]

    def test_worker_crash_pool_rebuild(self, balanced):
        config = SupervisorConfig(
            plan=FaultPlan(seed="freeze-crash", worker_crash_rate=1.0),
            max_task_retries=1)
        run = run_supervised("t", [2, 3], square, jobs=2, config=config)
        assert run.results == [4, 9]
        assert run.pool_rebuilds >= 1

    def test_task_exception(self, balanced):
        with pytest.raises(ValueError, match="bad:0"):
            run_supervised("t", [0, 1], explode, jobs=2)

    @needs_unfrozen_start  # its unfreeze would thaw the interpreter's own
    def test_heap_frozen_elsewhere_is_left_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert run_supervised("t", [1, 2], square,
                                  jobs=2).results == [1, 4]
            # Neither thawed nor frozen further (frozen objects may die).
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()
