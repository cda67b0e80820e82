"""Ingest driver memory against connection density.

The driver's merged chain map should grow with the chains, not with the
connections behind them.  One ``default``-scale corpus (seed ``probe``)
is generated at two connection rates over the same chains; then one
fresh process per rate runs ``ingest_shards(jobs=2)`` over it and reads
its own ``RUSAGE_SELF`` maximum: the driver's peak, without the
workers.  It is a process-lifetime maximum, so each measurement needs
its own process.  Both corpora are at least ``VECTORISE_MIN_BYTES``, so
both rates read vectorised and numpy's import falls on both sides of
the difference.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.campus.dataset import resolve_scale
from repro.parallel.engine import VECTORISE_MIN_BYTES

SEED = "probe"
SCALE = "default"
#: Connection-rate multipliers of the probe.
RATES = (1, 8)
#: Most the driver's peak RSS may grow from the ×1 to the ×8 rate (MiB).
#: Measured at ``default``, seed ``probe`` (2 vCPU, CPython 3.11, three
#: fresh-process runs per rate): 34.2–35.0 MiB while each chain's usage
#: held string sets and a port ``Counter``, 16.4–17.1 MiB with interned
#: id arrays.
DRIVER_RSS_GROWTH_MIB = 24.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_GENERATE = """
import json, sys
from repro.campus.profiles import ScaleConfig
from repro.parallel.generate import generate_dataset
scale = ScaleConfig(**json.loads(sys.argv[3]))
generate_dataset(sys.argv[1], seed=sys.argv[2], scale=scale, jobs=2)
"""

_DRIVER_PEAK = """
import json, resource, sys
from repro.parallel import discover_shards, ingest_shards
result = ingest_shards(discover_shards(sys.argv[1]), jobs=2)
print(json.dumps({
    "chains": len(result.chains), "ssl_rows": result.ssl_rows,
    "effective_jobs": result.jobs,
    "driver_peak_mib":
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def _env() -> dict:
    return dict(os.environ, REPRO_PARALLEL_NO_CPU_CLAMP="1",
                PYTHONPATH=os.pathsep.join(
                    filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def _corpus(base, rate: int) -> str:
    """Generate the corpus with every connection rate multiplied by
    ``rate``; returns its shard directory."""
    fields = dataclasses.asdict(resolve_scale(SCALE))
    for name in ("conns_per_nonpub_chain", "conns_per_public_chain",
                 "conns_per_interception_chain", "conns_per_hybrid_chain"):
        fields[name] *= rate
    fields["name"] = f"{SCALE}-x{rate}"
    out = str(base / f"x{rate}")
    subprocess.run([sys.executable, "-c", _GENERATE, out, SEED,
                    json.dumps(fields)], env=_env(), check=True)
    return out


def _driver_peak(shard_dir: str) -> dict:
    done = subprocess.run([sys.executable, "-c", _DRIVER_PEAK, shard_dir],
                          env=_env(), check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def driver_peaks(tmp_path_factory):
    base = tmp_path_factory.mktemp("ingest-memory")
    peaks = {}
    for rate in RATES:
        shard_dir = _corpus(base, rate)
        size = sum(entry.stat().st_size for entry in os.scandir(shard_dir))
        peaks[rate] = dict(_driver_peak(shard_dir), input_bytes=size)
    return peaks


def test_both_rates_read_vectorised(driver_peaks):
    for rate, peak in driver_peaks.items():
        assert peak["input_bytes"] >= VECTORISE_MIN_BYTES, (rate, peak)
        assert peak["effective_jobs"] == 2, (rate, peak)


def test_driver_memory_grows_with_chains_not_connections(driver_peaks):
    # Eight times the connections over the same chains: the chain map
    # holds each chain's distinct client IPs, server IPs and SNIs as
    # 4-byte ids and interns each string once per process, so its
    # growth is bounded by the distinct values, not the rows.
    low, high = (driver_peaks[rate] for rate in RATES)
    assert low["chains"] == high["chains"]
    assert high["ssl_rows"] > 6 * low["ssl_rows"]
    growth = high["driver_peak_mib"] - low["driver_peak_mib"]
    assert growth <= DRIVER_RSS_GROWTH_MIB, (
        f"driver peak RSS grew {growth:.1f} MiB from x{RATES[0]} "
        f"({low['driver_peak_mib']:.1f} MiB) to x{RATES[1]} "
        f"({high['driver_peak_mib']:.1f} MiB)")
