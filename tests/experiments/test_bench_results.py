"""The tracked benchmark results do not follow the string-hash seed.

Figures 7 and 8 print their role ``Counter`` in graph-node order, which
follows ``PYTHONHASHSEED``.  ``benchmarks/conftest.py::record_result``
therefore rewrites their tracked results only under hash seed 0 (whose
renderings they hold) and warns under any other seed, so a benchmark
run never dirties the checkout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

SCRIPT = """
import importlib.util, json, sys, types, warnings
spec = importlib.util.spec_from_file_location("bench_conftest", sys.argv[1])
conftest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(conftest)
conftest.RESULTS_DIR = sys.argv[2]
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    for exp_id in ("figure7", "figure8", "table2"):
        conftest.record_result(
            types.SimpleNamespace(exp_id=exp_id, rendered=exp_id))
print(json.dumps([str(warning.message) for warning in caught]))
"""


@pytest.mark.parametrize("hash_seed", ["0", "1", "random"])
def test_hash_ordered_results_written_only_under_hash_seed_0(tmp_path,
                                                             hash_seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT,
         os.path.join(ROOT, "benchmarks", "conftest.py"), str(tmp_path)],
        check=True, env=env, capture_output=True, text=True,
        timeout=300).stdout
    warned = json.loads(out.strip().splitlines()[-1])
    written = sorted(os.listdir(tmp_path))
    if hash_seed == "0":
        assert written == ["figure7.txt", "figure8.txt", "table2.txt"]
        assert warned == []
    else:
        assert written == ["table2.txt"]
        assert len(warned) == 2
        assert all("PYTHONHASHSEED=0" in message for message in warned)
