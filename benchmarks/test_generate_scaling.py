"""Generation scaling: the parallel engine and the compiled write path.

Measures the compiled row renderer against the legacy per-column closure
walk (single-thread, pure write path), then the full generation engine —
simulate + render + write — at ``jobs`` 1, 2, and 4, and persists every
number to ``BENCH_generate.json`` (repo root; override with
``REPRO_BENCH_GENERATE_OUT``) so CI can archive and gate on it.

Generation re-runs the whole simulation per round, so this benchmark
uses the small scale by default (``REPRO_BENCH_GENERATE_SCALE`` to
override) — scale changes move absolute numbers, not the compiled-vs-
legacy ratio or the jobs scaling the gates assert.  The multi-core
speedup assertion only runs where multi-core speedup is physically
possible and the clamp actually granted more than one worker.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import time

import pytest

from repro.campus.dataset import build_campus_dataset, resolve_scale
from repro.obs.benchreport import host_metadata
from repro.parallel.generate import generate_dataset
from repro.x509 import der
from repro.zeek.format import ZeekLogWriter
from repro.zeek.records import SSLRecord

ROUNDS = 3
JOBS_MATRIX = (1, 2, 4)
GEN_SEED = os.environ.get("REPRO_BENCH_GENERATE_SEED", "0")
GEN_SCALE = os.environ.get("REPRO_BENCH_GENERATE_SCALE", "small")
BENCH_OUT = os.environ.get(
    "REPRO_BENCH_GENERATE_OUT",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "BENCH_generate.json"))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best(fn) -> float:
    return min(_timed(fn) for _ in range(ROUNDS))


@pytest.fixture(scope="module")
def generate_bench(tmp_path_factory):
    """Measure everything once, write BENCH_generate.json, share numbers."""
    scale = resolve_scale(GEN_SCALE)
    # The pure write path: identical pre-rendered rows through both
    # writer modes, so the ratio isolates the renderer + buffering win.
    dataset = build_campus_dataset(seed=GEN_SEED, scale=scale)
    ssl_rows = [record.to_row() for record in dataset.tap.ssl_records]

    def write_all(compiled: bool) -> None:
        sink = io.StringIO()
        with ZeekLogWriter(sink, "ssl", SSLRecord.FIELDS, SSLRecord.TYPES,
                           compiled=compiled) as writer:
            for row in ssl_rows:
                writer.write_row(row)

    write_compiled = _best(lambda: write_all(True))
    write_legacy = _best(lambda: write_all(False))

    # The DER component memos: encoding every distinct certificate with
    # all memos cleared (cold) vs with the shared name/extension blocks
    # already warm isolates exactly the win the part memos buy when the
    # whole-certificate memo misses.
    certificates = list({c: None for s in dataset.specs for c in s.chain})

    def encode_all(warm_parts: bool) -> None:
        der._DER_MEMO.clear()
        if not warm_parts:
            der._NAME_MEMO.clear()
            der._EXT_MEMO.clear()
        for certificate in certificates:
            der.encode_certificate_der(certificate)

    der_cold = _best(lambda: encode_all(False))
    der_part_warm = _best(lambda: encode_all(True))

    # The full engine: simulate + render + write, per jobs value.
    base = tmp_path_factory.mktemp("generate-scaling")
    engine_results = {}

    def run_engine(jobs: int) -> None:
        out = str(base / f"jobs-{jobs}")
        shutil.rmtree(out, ignore_errors=True)
        engine_results[jobs] = generate_dataset(
            out, seed=GEN_SEED, scale=scale, jobs=jobs)

    run_engine(1)  # warm the per-process generation context once
    engine_seconds = {jobs: _best(lambda jobs=jobs: run_engine(jobs))
                      for jobs in JOBS_MATRIX}

    rows = len(ssl_rows)
    total = engine_results[1].ssl_rows + engine_results[1].x509_rows
    numbers = {
        "dataset": {"ssl_rows": rows,
                    "x509_rows": engine_results[1].x509_rows,
                    "scale": scale.name},
        "cpu_count": os.cpu_count(),
        "host": host_metadata(
            requested_jobs=engine_results[max(JOBS_MATRIX)].requested_jobs,
            effective_jobs=engine_results[max(JOBS_MATRIX)].jobs),
        "shards": engine_results[1].shard_count,
        "rounds": ROUNDS,
        "write": {
            "compiled_seconds": write_compiled,
            "legacy_seconds": write_legacy,
            "compiled_rows_per_second": rows / write_compiled,
            "legacy_rows_per_second": rows / write_legacy,
            "compiled_over_legacy": write_legacy / write_compiled,
        },
        "der": {
            "certificates": len(certificates),
            "cold_seconds": der_cold,
            "part_warm_seconds": der_part_warm,
            "part_memo_speedup": der_cold / der_part_warm,
        },
        "engine": {
            str(jobs): {"seconds": seconds,
                        "rows_written_per_second": total / seconds,
                        "speedup_vs_single": engine_seconds[1] / seconds,
                        "requested_jobs": engine_results[jobs].requested_jobs,
                        "effective_jobs": engine_results[jobs].jobs}
            for jobs, seconds in engine_seconds.items()},
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(numbers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return numbers


def test_bench_file_written(generate_bench):
    recorded = json.load(open(BENCH_OUT))
    assert recorded["write"]["compiled_rows_per_second"] > 0
    assert recorded["engine"]["1"]["rows_written_per_second"] > 0
    # The CPU clamp is part of the recorded contract: a 4-worker request
    # on a smaller box must report what actually ran.
    four = recorded["engine"]["4"]
    assert four["requested_jobs"] == 4
    assert four["effective_jobs"] <= (recorded["cpu_count"] or 1)


def test_compiled_write_path_beats_legacy_renderer(generate_bench):
    # The ISSUE gate: exec-compiled renderers + buffered block writes
    # must beat the per-column closure walk by >= 1.5x single-threaded.
    assert generate_bench["write"]["compiled_over_legacy"] >= 1.5


def test_der_part_memo_speedup(generate_bench):
    # Warm name/extension memos skip the component re-encode entirely on
    # certificates the whole-cert memo missed (~1.6x on the calibration
    # box; the floor sits at roughly half that margin).
    assert generate_bench["der"]["part_memo_speedup"] >= 1.25


def test_serial_rows_written_floor(generate_bench):
    # Loose floor (~half the calibration box) on the full simulate +
    # render + write loop: catches a quadratic regression anywhere in
    # the generation path, not just the renderer.
    assert generate_bench["engine"]["1"]["rows_written_per_second"] > 5_000


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="multi-core speedup needs >= 4 CPUs")
def test_parallel_scaling_at_four_workers(generate_bench):
    fanned = generate_bench["engine"]["4"]
    if fanned["effective_jobs"] <= 1:
        pytest.skip("jobs clamp left a single effective worker")
    assert fanned["speedup_vs_single"] > 1.15
