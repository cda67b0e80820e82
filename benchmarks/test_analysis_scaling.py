"""Analysis scaling: the enrichment engine and the artifact cache.

Measures the legacy serial analysis (``jobs=None``) against the sharded
enrichment engine at ``jobs`` 1, 2, and 4 over one default-scale chain
map, then the artifact cache cold (compute + save) against warm (served
from disk), and persists every number to ``BENCH_analyze.json`` (repo
root; override with ``REPRO_BENCH_ANALYZE_OUT``) so CI can archive and
gate on it.

Two gates hold everywhere: a single-worker throughput floor, and the
warm artifact run at least 5x faster than a cold compute.  The
multi-core speedup assertion only runs where it is physically possible
(``os.cpu_count() >= 4``).  Neither path builds Table 8's structures
(both compute them on first ``structure_of``), so the engine at
``jobs=1`` does the serial stages' work plus its partition bookkeeping;
no engine-vs-serial single-thread gate exists.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core import matching
from repro.core.chain import aggregate_chains
from repro.obs.benchreport import host_metadata
from repro.parallel.analysis import DEFAULT_PARTITIONS, effective_analysis_jobs
from repro.resilience import ArtifactStore

ROUNDS = 3
JOBS_MATRIX = (1, 2, 4)
BENCH_OUT = os.environ.get(
    "REPRO_BENCH_ANALYZE_OUT",
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "BENCH_analyze.json"))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_cold(fn) -> float:
    """Best-of-rounds with the process-global match memo cleared first,
    so every round pays the full pair-matching cost."""
    def cold():
        matching._MATCH_MEMO.clear()
        fn()
    return min(_timed(cold) for _ in range(ROUNDS))


@pytest.fixture(scope="module")
def analysis_bench(dataset, tmp_path_factory):
    """Measure everything once, write BENCH_analyze.json, share numbers."""
    chains = aggregate_chains(dataset.joined())
    count = len(chains)

    serial_seconds = _best_cold(
        lambda: dataset.analyzer().analyze_chains(chains))
    engine_seconds = {
        jobs: _best_cold(
            lambda jobs=jobs: dataset.analyzer().analyze_chains(chains,
                                                                jobs=jobs))
        for jobs in JOBS_MATRIX}

    # Artifact cache: cold rounds get a fresh store each (compute + save);
    # warm rounds share one pre-primed store.
    base = tmp_path_factory.mktemp("artifact-bench")
    cold_stores = iter(ArtifactStore(str(base / f"cold-{i}"))
                       for i in range(ROUNDS))
    cold_seconds = _best_cold(
        lambda: dataset.analyzer().analyze_chains(chains, jobs=1,
                                                  artifacts=next(cold_stores)))
    warm_store = ArtifactStore(str(base / "warm"))
    dataset.analyzer().analyze_chains(chains, jobs=1, artifacts=warm_store)
    warm_seconds = min(
        _timed(lambda: dataset.analyzer().analyze_chains(
            chains, jobs=1, artifacts=warm_store))
        for _ in range(ROUNDS))

    numbers = {
        "dataset": {"chains": count},
        "cpu_count": os.cpu_count(),
        "host": host_metadata(
            requested_jobs=max(JOBS_MATRIX),
            effective_jobs=effective_analysis_jobs(max(JOBS_MATRIX))),
        "partitions": DEFAULT_PARTITIONS,
        "rounds": ROUNDS,
        "serial_legacy": {"seconds": serial_seconds,
                          "chains_per_second": count / serial_seconds},
        "engine": {
            str(jobs): {"seconds": seconds,
                        "chains_per_second": count / seconds,
                        "speedup_vs_serial": serial_seconds / seconds,
                        "requested_jobs": jobs,
                        "effective_jobs": effective_analysis_jobs(jobs)}
            for jobs, seconds in engine_seconds.items()},
        "artifact": {
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup": cold_seconds / warm_seconds,
        },
    }
    with open(BENCH_OUT, "w", encoding="utf-8") as handle:
        json.dump(numbers, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return numbers


def test_bench_file_written(analysis_bench):
    recorded = json.load(open(BENCH_OUT))
    assert recorded["engine"]["1"]["chains_per_second"] > 0
    assert recorded["artifact"]["warm_speedup"] > 0


def test_single_worker_throughput_floor(analysis_bench):
    # ~1/3 of the observed ~14k chains/s on the calibration box: loose
    # enough for CI noise, tight enough to catch a quadratic regression.
    assert analysis_bench["engine"]["1"]["chains_per_second"] > 5_000


def test_warm_artifact_at_least_5x_faster_than_cold(analysis_bench):
    # The ISSUE gate: rehydrating derived state must beat recomputing by
    # a wide margin, or the cache is not earning its disk.
    assert analysis_bench["artifact"]["warm_speedup"] >= 5


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="multi-core speedup needs >= 4 CPUs")
def test_parallel_scaling_at_four_workers(analysis_bench):
    # Engine-vs-engine, not engine-vs-legacy: the serial stages skip the
    # partition bookkeeping, so the fair parallelism baseline is jobs=1.
    # Asserting a speedup only makes sense when the clamp actually let
    # more than one worker run — on a 1-CPU box "jobs=4" silently runs
    # inline and the ratio below would gate on hardware, not code.
    fanned_entry = analysis_bench["engine"]["4"]
    if fanned_entry["effective_jobs"] <= 1:
        pytest.skip("jobs clamp left a single effective worker")
    inline = analysis_bench["engine"]["1"]["seconds"]
    assert inline / fanned_entry["seconds"] > 1.15
