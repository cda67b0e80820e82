"""The quarantine records and counter exports of the on-disk loop, pinned.

Three CLI runs in fresh processes (memo hit counters follow process
history): ``generate --seed 7 --scale small --jobs 2``, then
``--shard-dir --jobs 2`` on that corpus, then the same read under
``--fault-plan 'seed=cli,zeek_corrupt_rate=0.01'``.  The faulted run's
``--quarantine-out`` JSONL and the counter families of the first two
runs' ``--metrics-out`` exports (no histograms, no gauges: those carry
durations and worker counts) must equal the files under ``golden/``
byte for byte.  They were frozen from these commands; to refreeze after
a declared output change, rerun them from an empty directory with the
shard directory named ``corpus`` and keep every counter sample line.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.abspath(os.path.join(HERE, "..", "..", "src"))

FAULT_PLAN = "seed=cli,zeek_corrupt_rate=0.01"


def _cli(cwd, *args):
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_PARALLEL_NO_CPU_CLAMP="1")
    env.pop("REPRO_FAULT_PLAN", None)
    subprocess.run([sys.executable, "-m", "repro.experiments.cli", *args],
                   cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def _counters(path):
    """The sample lines of every family the export types as a counter."""
    kinds, lines = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split()
                kinds[family] = kind
            elif line.strip() and not line.startswith("#"):
                family = line.split("{")[0].split(" ")[0]
                if kinds.get(family) == "counter":
                    lines.append(line)
    return "".join(lines)


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = str(tmp_path_factory.mktemp("golden-outputs"))
    _cli(work, "generate", "--out", "corpus", "--seed", "7", "--scale",
         "small", "--jobs", "2", "--metrics-out", "generate.prom")
    _cli(work, "--shard-dir", "corpus", "--jobs", "2", "--metrics-out",
         "shard-dir.prom")
    _cli(work, "--shard-dir", "corpus", "--jobs", "2", "--fault-plan",
         FAULT_PLAN, "--quarantine-out", "quarantine.jsonl")
    return work


def test_quarantine_records_are_golden(outputs):
    with open(os.path.join(outputs, "quarantine.jsonl"),
              encoding="utf-8") as handle:
        records = handle.read()
    assert records.count("\n") == 35
    assert records == _golden("quarantine-small-7.jsonl")


@pytest.mark.parametrize("run", ["generate", "shard-dir"])
def test_counter_exports_are_golden(outputs, run):
    counters = _counters(os.path.join(outputs, f"{run}.prom"))
    assert counters == _golden(f"counters-{run}-small-7.prom")
