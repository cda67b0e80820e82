"""Tests for the benchmark's own checks: reconciliation arithmetic, the
output check, and wrappers that put the program's functions back.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from perfbench import layers, pipeline
from perfbench.tracer import Totals, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- reconciliation ---------------------------------------------------------------


def test_reconcile_within_and_outside_tolerance():
    unaccounted, within = layers.reconcile(10.0, {"a": 6.0, "b": 3.9})
    assert unaccounted == pytest.approx(0.1)
    assert within  # 1% of the wall clock, inside the 2% tolerance
    unaccounted, within = layers.reconcile(10.0, {"a": 6.0, "b": 3.0})
    assert unaccounted == pytest.approx(1.0)
    assert not within
    _, within = layers.reconcile(10.0, {"a": 10.5})
    assert not within  # over-counting fails as well


def _fake_module():
    module = types.SimpleNamespace()

    def leaf(seconds):
        time.sleep(seconds)
        return seconds

    def outer(seconds):
        time.sleep(seconds)
        return module.leaf(seconds) + module.leaf(seconds)

    module.leaf = leaf
    module.outer = outer
    return module


def test_self_times_sum_to_the_covered_wall_clock(tmp_path):
    module = _fake_module()
    tracer = Tracer(str(tmp_path))
    tracer.span(module, "outer", "outer_s")
    tracer.span(module, "leaf", "leaf_s")
    started = time.perf_counter()
    module.outer(0.02)
    wall = time.perf_counter() - started
    tracer.restore()
    totals = tracer.totals
    assert totals.calls == {"outer_s": 1, "leaf_s": 2}
    # The outer span's self time excludes its two children.
    assert totals.self_s["leaf_s"] >= 0.04
    assert 0.02 <= totals.self_s["outer_s"] < totals.self_s["leaf_s"]
    unaccounted, within = layers.reconcile(wall, totals.self_s)
    assert 0.0 <= unaccounted < 0.005
    assert within


def test_iterator_steps_are_timed_and_loop_bodies_are_not(tmp_path):
    module = types.SimpleNamespace(
        produce=lambda n: (time.sleep(0.01) or i for i in range(n)))
    tracer = Tracer(str(tmp_path))
    tracer.span_iter(module, "produce", "produce_s")
    for _ in module.produce(3):
        time.sleep(0.02)  # consumer time: outside the span
    tracer.restore()
    assert tracer.totals.calls["produce_s"] == 4  # three items + the end
    assert 0.03 <= tracer.totals.self_s["produce_s"] < 0.05


def test_hit_ratios_and_skew():
    totals = Totals()
    totals.calls["site"] = 8
    totals.distinct["site"] = {"a", "b"}
    totals.units["ingest"] = [1.0, 1.0, 2.0]
    metrics = layers.per_layer_metrics(totals, Totals(), {
        "traced_wall_s": 5.0, "untraced_wall_s": 4.5})
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["ingest.unit_skew"] == pytest.approx(1.5)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["trace.unaccounted_s"] == pytest.approx(5.0)
    assert layers._hit_ratio(totals, "site") == pytest.approx(0.75)
    assert layers._hit_ratio(totals, "never-called") == 0.0


def test_missing_metric_is_reported():
    totals = Totals()
    for name in layers.REQUIRED["render"]:
        totals.calls[name] = 1
    assert layers.missing_metrics(["render"], totals) == []
    missing = layers.missing_metrics(["render", "resilience"], totals)
    assert missing == list(layers.REQUIRED["resilience"])


# -- worker hand-off --------------------------------------------------------------


_TASKS_SOURCE = """
import os, time

def task(seconds):
    return inner(seconds)

def inner(seconds):
    time.sleep(seconds)
    return os.getpid()
"""


def test_fork_workers_hand_totals_back_through_files(tmp_path):
    # Pool tasks pickle by module and name, so they live in a module.
    tasks = types.ModuleType("perfbench_fake_tasks")
    exec(_TASKS_SOURCE, tasks.__dict__)  # noqa: S102 - fixed test source
    sys.modules[tasks.__name__] = tasks
    tracer = Tracer(str(tmp_path))
    try:
        tracer.task([tasks], "task", "fake", "fake.task_s")
        tracer.span(tasks, "inner", "fake.inner_s")
        with ProcessPoolExecutor(2, mp_context=get_context("fork")) as pool:
            pids = list(pool.map(tasks.task, [0.01] * 4))
    finally:
        tracer.restore()
        del sys.modules[tasks.__name__]
    assert os.getpid() not in pids
    assert tracer.totals.calls == {}  # nothing ran in the driver
    workers = tracer.collect()
    assert workers.calls == {"fake.task_s": 4, "fake.inner_s": 4}
    assert len(workers.units["fake"]) == 4
    assert workers.self_s["fake.inner_s"] >= 0.04
    assert len(os.listdir(tmp_path)) == 4


# -- wrappers put the program back ------------------------------------------------


def _patched_attributes():
    from repro.core import pipeline as core_pipeline
    from repro.parallel import engine, worker
    from repro.x509 import dn

    return [(engine, "ingest_shards"), (engine, "process_shard"),
            (worker, "process_shard"), (worker, "read_zeek_log_columnar"),
            (dn.DistinguishedName, "parse"),
            (core_pipeline.AnalysisResult, "structure_of")]


def test_install_then_restore_puts_every_original_back(tmp_path):
    from repro.x509 import dn

    before = {(id(owner), name): (owner.__dict__[name]
                                  if isinstance(owner, type)
                                  else getattr(owner, name))
              for owner, name in _patched_attributes()}
    tracer = Tracer(str(tmp_path))
    layers.install(tracer)
    try:
        for owner, name in _patched_attributes():
            current = (owner.__dict__[name] if isinstance(owner, type)
                       else getattr(owner, name))
            assert current is not before[(id(owner), name)]
        # A wrapped classmethod still binds to the class.
        parsed = dn.DistinguishedName.parse("CN=bench,O=Example")
        assert parsed.rfc4514() == "CN=bench,O=Example"
        assert tracer.totals.calls["dn_parse"] == 1
    finally:
        tracer.restore()
    for owner, name in _patched_attributes():
        current = (owner.__dict__[name] if isinstance(owner, type)
                   else getattr(owner, name))
        assert current is before[(id(owner), name)]
    assert tracer._patches == []


def test_task_wrapper_pickles_as_the_original_name(tmp_path):
    import pickle

    from repro.parallel import engine, worker

    tracer = Tracer(str(tmp_path))
    layers.install(tracer)
    try:
        assert engine.process_shard is worker.process_shard
        restored = pickle.loads(pickle.dumps(engine.process_shard))
        assert restored is worker.process_shard
    finally:
        tracer.restore()


# -- output checks ----------------------------------------------------------------


def _rendered():
    return {exp_id: f"{exp_id}\n| a | b |\n" for exp_id in
            pipeline.EXPERIMENT_IDS}


def test_identical_tables_pass_the_output_check():
    rendered = _rendered()
    reference = pipeline.table_digests(rendered)
    assert pipeline.compare_tables(rendered, reference) == []


def test_a_flipped_table_byte_fails_the_output_check():
    rendered = _rendered()
    reference = pipeline.table_digests(rendered)
    text = rendered["table3"]
    rendered["table3"] = text[:5] + chr(ord(text[5]) ^ 1) + text[6:]
    assert pipeline.compare_tables(rendered, reference) == ["table3"]
    del rendered["figure8"]
    assert pipeline.compare_tables(rendered, reference) == ["table3",
                                                            "figure8"]


def test_a_flipped_output_byte_changes_the_generated_digest(tmp_path):
    (tmp_path / "ssl-00.log").write_bytes(b"#fields\tts\n1.0\n")
    (tmp_path / "x509.log").write_bytes(b"#fields\tts\n2.0\n")
    digest = pipeline.dir_digest(str(tmp_path))
    (tmp_path / "x509.log").write_bytes(b"#fields\tts\n2.1\n")
    assert pipeline.dir_digest(str(tmp_path)) != digest


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_lists_exactly_the_reported_metrics():
    from perfbench.run import END_TO_END
    from perfbench.shapes import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert next(m for m in spec["end_to_end"]
                if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in spec["end_to_end"])
