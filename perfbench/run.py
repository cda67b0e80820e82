"""The repository benchmark: one workload, measured end to end.

Usage, from the repository root::

    python3 perfbench/run.py --workload rerun --seed 1 --seconds 45 \\
        --trace 0

Inputs come from ``--seed`` and are cached under ``perfbench/.cache``.
The runner process sets up once, forks one warm-up run, and then forks
one run after another (each timed and its outputs checked) until
``--seconds`` have passed, making at least three; after each run it
times set-up again in a fresh process.  Every reported time is a median.
``--trace 1`` adds one traced run with the same inputs and prints the
per-layer metrics instead of the end-to-end ones.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.shapes import JOBS, WORKLOADS  # noqa: E402

#: End-to-end metrics with their units.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("conns_per_s", "conns/s"),
              ("peak_rss_mb", "MiB"), ("ok_frac", "ratio"),
              ("truth_agreement", "ratio"))

#: ``PYTHONHASHSEED`` of every benchmark process.
HASH_SEED = "0"
#: No child may run past this many seconds after the benchmark started.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _stop_group(process: subprocess.Popen) -> None:
    """Kill the child's process group and wait until it is empty, so a
    pool worker or set-up probe that a crashed child left behind cannot
    outlive us."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _child(role: str, args: argparse.Namespace, extra: List[str]) -> dict:
    """Run one child process in its own session; its last line is JSON."""
    timeout = args.deadline - time.monotonic()
    env = dict(os.environ)
    # Figures 7/8 render a Counter built in graph-node order, which
    # follows the string-hash seed: every process shares one fixed seed,
    # so a run and its reference can be compared and the dict and set
    # layouts it brings do not vary the timings from one seed to the next.
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Temporary files stay inside the checkout.
    env["TMPDIR"] = args.work
    command = [sys.executable, "-m", "perfbench.child", role,
               "--workload", args.workload, "--seed", str(args.seed), *extra]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} child exceeded {timeout:.0f} s") from None
    finally:
        _stop_group(process)
    if process.returncode != 0:
        raise BenchError(f"{role} child exited with {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} child printed nothing")
    return json.loads(lines[-1])


def _spread(values: List[float]) -> str:
    if len(values) < 2:
        return ""
    return (f"n={len(values)} min {min(values):.4f} "
            f"max {max(values):.4f}")


def measure(args: argparse.Namespace) -> dict:
    prepared = _child("prepare", args, [])
    runner = _child("runner", args, [
        "--entry", prepared["entry"], "--work", args.work,
        "--seconds", repr(args.seconds)] + (["--trace"] if args.trace else []))
    runs = runner["runs"]
    checked = [runner["warmup"]] + runs
    attempted = sum(run["attempted"] for run in checked)
    failed = sum(run["failed"] for run in checked)
    samples = {"setup_s": runner["setups"],
               "wall_s": [run["wall_s"] for run in runs],
               "conns_per_s": [run["rows"] / run["wall_s"] for run in runs],
               "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
               "truth_agreement": [run["truth_agreement"] for run in runs]}
    end_to_end = {name: statistics.median(values)
                  for name, values in samples.items()}
    end_to_end["ok_frac"] = 1.0 - failed / attempted
    problems = [problem for run in checked for problem in run["problems"]]
    traced = runner["traced"]
    if traced is not None:
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems += traced["problems"]
    return {"prepared": prepared, "runs": runs, "end_to_end": end_to_end,
            "samples": samples, "traced": traced, "attempted": attempted,
            "failed": failed, "problems": problems,
            "window_s": runner["window_s"]}


def host_record(runs: List[dict]) -> dict:
    """nproc, Python, and requested/effective jobs of every engine.

    On a 1-CPU host the engines clamp to one worker, so fan-out there is
    overhead, not scaling.
    """
    jobs = {}
    for run in runs:
        jobs.update(run["jobs"])
    nproc = os.cpu_count() or 1
    return {"nproc": nproc, "python": platform.python_version(),
            "requested_jobs": JOBS,
            "jobs": {engine: {"requested": pair[0], "effective": pair[1]}
                     for engine, pair in sorted(jobs.items())},
            "fan_out": "scaling" if nproc > 1 else
            "overhead (1 CPU: workers add cost, no parallelism)"}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program sources under src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    args.work = os.path.join(HERE, ".work",
                             f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(args.work)
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    runs = result["runs"]
    print(f"perfbench {args.workload} seed={args.seed}: {len(runs)} runs in "
          f"{result['window_s']:.1f} s; inputs "
          f"{'cached' if result['prepared']['cached'] else 'built'} in "
          f"{result['prepared']['seconds']:.1f} s")
    for name, unit in END_TO_END:
        print(f"  {name:<16} {result['end_to_end'][name]:>14.4f} {unit:<8} "
              f"{_spread(result['samples'].get(name, []))}")
    print("host " + json.dumps(host_record(runs), sort_keys=True))
    metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
               for name, unit in END_TO_END}
    if result["traced"] is not None:
        traced = result["traced"]["metrics"]
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {traced[name]:>16.4f} {unit}")
        metrics = {name: {"value": traced[name], "unit": unit}
                   for name, unit in PER_LAYER}
    for problem in result["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
