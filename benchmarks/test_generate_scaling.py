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

It also records how a generation worker's peak resident set grows when
every chain carries eight times the connections: one fresh process per
rate runs ``generate_dataset(jobs=2)`` and reads its reaped workers'
``RUSAGE_CHILDREN`` maximum (a process-lifetime maximum, hence one
process per measurement).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
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


#: Connection-rate multipliers of the worker-memory probe.
RSS_RATES = (1, 8)
#: Most a worker's peak RSS may grow from the ×1 to the ×8 rate (MiB).
#: Measured growth at ``small`` (2 vCPU, CPython 3.11): 5.3–5.5 MiB while
#: plans held a tuple slot per connection and the writer buffered 4,096
#: lines, 0.4–0.8 MiB with compact plans and 64 KiB blocks.
WORKER_RSS_GROWTH_MIB = 2.5
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_WORKER_PEAK = """
import json, resource, sys, tempfile
from repro.campus.profiles import ScaleConfig
from repro.parallel.generate import generate_dataset
scale = ScaleConfig(**json.loads(sys.argv[2]))
with tempfile.TemporaryDirectory() as out:
    result = generate_dataset(out, seed=sys.argv[1], scale=scale, jobs=2)
print(json.dumps({
    "ssl_rows": result.ssl_rows, "effective_jobs": result.jobs,
    "worker_peak_mib":
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}))
"""


def _worker_peak(scale, rate: int) -> dict:
    """Peak RSS of the generation workers, in a fresh process, with every
    per-category connection rate multiplied by ``rate``."""
    fields = dataclasses.asdict(scale)
    for name in ("conns_per_nonpub_chain", "conns_per_public_chain",
                 "conns_per_interception_chain", "conns_per_hybrid_chain"):
        fields[name] *= rate
    fields["name"] = f"{scale.name}-x{rate}"
    env = dict(os.environ, REPRO_PARALLEL_NO_CPU_CLAMP="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _WORKER_PEAK, GEN_SEED, json.dumps(fields)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


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

    worker_rss = {str(rate): _worker_peak(scale, rate) for rate in RSS_RATES}
    low, high = (worker_rss[str(rate)]["worker_peak_mib"]
                 for rate in RSS_RATES)

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
        "worker_rss": {"rates": worker_rss, "growth_mib": high - low},
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


def test_worker_memory_grows_with_specs_not_connections(generate_bench):
    # Eight times the connections over the same specs: a worker's plans
    # hold one byte per connection and its writers a bounded block, so
    # its peak may grow by little more than the cells' transient rows.
    rss = generate_bench["worker_rss"]
    low, high = (rss["rates"][str(rate)] for rate in RSS_RATES)
    assert high["ssl_rows"] > 6 * low["ssl_rows"]
    assert low["effective_jobs"] == high["effective_jobs"] == 2
    assert rss["growth_mib"] < WORKER_RSS_GROWTH_MIB, rss
