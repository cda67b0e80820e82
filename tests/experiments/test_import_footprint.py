"""What importing the program loads, checked in a fresh interpreter.

The analysis and generation runs import ``repro.experiments``,
``repro.parallel``, ``repro.resilience`` and the CLI module.  Table 5
and the blind-spot ablation load the crypto-backed validators, and the
section-5 revisit and the survey the scan simulator, on first use; the
CLI loads its bench report only for ``bench-report``; the columnar
reader loads numpy on its first vectorised read, and only an ingest of
at least ``VECTORISE_MIN_BYTES`` reads vectorised, so generation and a
small ingest never do.  None of
those may be imported up front, nor may networkx, a test oracle only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

#: Modules no run start-up may load.
DEFERRED = ("networkx", "cryptography", "repro.validation", "repro.scan",
            "http.server", "numpy")

SCRIPT = """
import json, sys
import repro.experiments, repro.parallel, repro.resilience
import repro.experiments.cli
deferred = sys.argv[1:]
loaded_at_import = [name for name in deferred if name in sys.modules]
from repro.campus.dataset import build_campus_dataset
from repro.experiments import registry, run_experiment
rendered = run_experiment("table5", build_campus_dataset(seed=7, scale="small"))
print(json.dumps({
    "loaded_at_import": loaded_at_import,
    "registered": sorted(registry()),
    "table5": rendered.rendered,
    "after_table5": [name for name in deferred if name in sys.modules],
}))
"""


GENERATE_SCRIPT = """
import json, os, shutil, sys
marker, out = sys.argv[1:]

def record_numpy_import(event, args):
    # Pool workers fork with this hook installed, so it sees their
    # imports too.
    if event == "import" and args[0].split(".")[0] == "numpy":
        with open(marker, "a") as handle:
            handle.write(f"{os.getpid()}\\n")

sys.addaudithook(record_numpy_import)
from repro.parallel import discover_shards, engine, generate_dataset
jobs = [generate_dataset(os.path.join(out, str(jobs)), seed="lean",
                         scale="small", jobs=jobs).jobs
        for jobs in (1, 2)]
after_generate = "numpy" in sys.modules
imported_during_generate = os.path.exists(marker)
# Two shards with an x509 log each: both dispatches fork two workers.
shards = os.path.join(out, "shards")
os.makedirs(shards)
for i in range(2):
    shutil.copy(os.path.join(out, "2", f"ssl-{i:02d}.log"), shards)
    shutil.copy(os.path.join(out, "2", "x509.log"),
                os.path.join(shards, f"x509-{i:02d}.log"))
specs = discover_shards(shards)
small = engine.ingest_shards(specs, jobs=2)
after_small = "numpy" in sys.modules
imported_during_small = os.path.exists(marker)
# The same ingest with the constant below its input size reads vectorised.
engine.VECTORISE_MIN_BYTES = 0
large = engine.ingest_shards(specs, jobs=2)
with open(marker) as handle:
    importers = set(handle.read().split())
print(json.dumps({
    "jobs": jobs,
    "after_generate": after_generate,
    "imported_during_generate": imported_during_generate,
    "ingest_jobs": [small.jobs, large.jobs],
    "same_chains": list(small.chains) == list(large.chains),
    "chains": len(small.chains),
    "after_small_ingest": after_small,
    "imported_during_small_ingest": imported_during_small,
    "imported_by_driver_only": importers == {str(os.getpid())},
}))
"""


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["REPRO_PARALLEL_NO_CPU_CLAMP"] = "1"
    out = subprocess.run([sys.executable, "-c", script, *args],
                         check=True, env=env, capture_output=True,
                         text=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_generation_never_loads_numpy(tmp_path):
    report = _run(GENERATE_SCRIPT, str(tmp_path / "numpy-imports"),
                  str(tmp_path))
    assert report["jobs"] == [1, 2]  # inline, then two forked workers
    assert report["after_generate"] is False
    assert report["imported_during_generate"] is False
    # An ingest below VECTORISE_MIN_BYTES reads per line: no process,
    # neither the driver nor a forked worker, loads numpy.
    assert report["ingest_jobs"] == [2, 2] and report["chains"]
    assert report["after_small_ingest"] is False
    assert report["imported_during_small_ingest"] is False
    # Above it, the driver loads numpy once, before forking its workers.
    assert report["same_chains"] is True
    assert report["imported_by_driver_only"] is True


def test_start_up_imports_nothing_deferred():
    report = _run(SCRIPT, *DEFERRED)
    assert report["loaded_at_import"] == []
    # Every experiment still registers, and Table 5 loads what it needs.
    assert {"table5", "section5", "extension-survey", "ablation-blindspot",
            "figure5", "figure7", "figure8"} <= set(report["registered"])
    assert "Table 5" in report["table5"]
    assert {"cryptography", "repro.validation"} <= set(report["after_table5"])
