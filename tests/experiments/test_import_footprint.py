"""What importing the program loads, checked in a fresh interpreter.

The analysis and generation runs import ``repro.experiments``,
``repro.parallel``, ``repro.resilience`` and the CLI module.  Table 5
and the blind-spot ablation load the crypto-backed validators, and the
section-5 revisit and the survey the scan simulator, on first use; the
CLI loads its metrics server and bench report only for
``--serve-metrics`` and ``bench-report``.  None of those may be
imported up front, nor may networkx, a test oracle only.
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
            "http.server")

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


def test_start_up_imports_nothing_deferred():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", SCRIPT, *DEFERRED],
                         check=True, env=env, capture_output=True,
                         text=True, timeout=300).stdout
    report = json.loads(out.strip().splitlines()[-1])
    assert report["loaded_at_import"] == []
    # Every experiment still registers, and Table 5 loads what it needs.
    assert {"table5", "section5", "extension-survey", "ablation-blindspot",
            "figure5", "figure7", "figure8"} <= set(report["registered"])
    assert "Table 5" in report["table5"]
    assert {"cryptography", "repro.validation"} <= set(report["after_table5"])
