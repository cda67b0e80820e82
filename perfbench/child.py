"""Benchmark processes: prepare inputs, time set-up, or measure runs.

``python3 -m perfbench.child ROLE --workload NAME --seed N ...`` prints
one JSON object as its last stdout line.  Roles:

* ``prepare`` — make sure the cache holds the workload's inputs and
  reference for this seed (see :func:`cache_entry`);
* ``setup`` — import the program and build the analyzer context, timed
  from the process's first statement;
* ``runner`` — set up once, then fork one child per run until the time
  window closes, starting a fresh ``setup`` process after each run so
  that the set-up samples are spread over the same window as the runs.
  Each forked run starts from the set-up state with the program's
  process-global memos still cold, as a user's command does, makes one
  timed run and checks its outputs.  With ``--trace`` one more forked
  run installs every layer wrapper and reports the per-layer metrics
  and the reconciliation of driver-side self times.
"""

import time

# Set-up is timed from the first statement, before the program is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from . import layers, pipeline  # noqa: E402
from .shapes import WORKLOADS  # noqa: E402
from .tracer import Totals, Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Inputs and reference digests, one directory per workload.
CACHE = os.path.join(ROOT, "perfbench", ".cache")
#: Cached (seed, shape) entries kept per workload, newest first.
CACHE_ENTRIES = 12
#: Timed runs per window: at least ``MIN_RUNS``, at most ``MAX_RUNS``.
MIN_RUNS = 3
MAX_RUNS = 60


def _definition_digest() -> str:
    """Digest of the benchmark modules that define the inputs and the
    reference (``pipeline``, ``shapes``)."""
    digest = hashlib.sha256()
    for name in ("pipeline.py", "shapes.py"):
        digest.update(name.encode("utf-8"))
        with open(os.path.join(ROOT, "perfbench", name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def cache_entry(workload, seed: int) -> str:
    """The cache directory for (seed, shape, package version).

    The program's sources are not part of the key: inputs and references
    built by one commit check every later change that keeps the package
    version, so a change that alters an output fails the check instead
    of moving the reference along with it.
    """
    from repro import __version__

    # The string-hash seed is part of the key: Figures 7 and 8 follow it.
    key = json.dumps([workload.name, list(workload.scale), seed, __version__,
                      os.environ.get("PYTHONHASHSEED"), _definition_digest()])
    name = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
    return os.path.join(CACHE, workload.name, f"seed{seed}-{name}")


def _evict(directory: str, keep: str) -> None:
    entries = [os.path.join(directory, name) for name in os.listdir(directory)]
    entries = sorted((path for path in entries if os.path.isdir(path)),
                     key=os.path.getmtime, reverse=True)
    for path in entries[CACHE_ENTRIES:]:
        if path != keep:
            shutil.rmtree(path, ignore_errors=True)


def prepare(args, workload) -> dict:
    started = time.perf_counter()
    entry = cache_entry(workload, args.seed)
    cached = os.path.isfile(os.path.join(entry, "reference.json"))
    if not cached:
        staging = f"{entry}.tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        os.makedirs(staging)
        reference = pipeline.prepare(workload, args.seed, staging)
        with open(os.path.join(staging, "reference.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
        shutil.rmtree(entry, ignore_errors=True)
        os.replace(staging, entry)
    os.utime(entry)
    _evict(os.path.dirname(entry), entry)
    return {"entry": entry, "cached": cached,
            "seconds": time.perf_counter() - started}


def measure_once(context, args, reference: dict, *, traced: bool,
                 untraced_wall: float = 0.0) -> dict:
    """One run (in a forked child): time it, check it, maybe trace it."""
    from repro.parallel import analysis

    handoff = os.path.join(args.work, "handoff")
    shutil.rmtree(handoff, ignore_errors=True)
    os.makedirs(handoff)
    tracer = Tracer(handoff)
    # Not tracing: analyze_partitions's return value carries the
    # analysis engine's SupervisedRun, which no other result exposes.
    tracer.tap(analysis, "analyze_partitions", context.enrichments)
    if traced:
        layers.install(tracer)
    try:
        outcome = pipeline.run_once(context, args.entry, args.work)
    finally:
        tracer.restore()
    checked = pipeline.check(context, outcome, reference, args.work)
    report = {"wall_s": outcome.wall_s, "rows": outcome.rows,
              "peak_rss_mb": outcome.peak_rss_mb,
              "attempted": checked.attempted, "failed": checked.failed,
              "truth_agreement": checked.truth_agreement,
              "problems": checked.problems, "jobs": checked.jobs}
    if not traced:
        return report
    facts = pipeline.trace_facts(outcome, checked)
    facts["traced_wall_s"] = outcome.wall_s
    facts["untraced_wall_s"] = untraced_wall
    driver = tracer.totals
    workers = tracer.collect()
    report["metrics"] = layers.per_layer_metrics(driver, workers, facts)
    unaccounted, within = layers.reconcile(outcome.wall_s, driver.self_s)
    if not within:
        report["problems"].append(
            f"driver-side self times miss the traced wall clock by "
            f"{unaccounted:.4f} s (tolerance {layers.RECONCILE_TOLERANCE:.0%}"
            f" of {outcome.wall_s:.4f} s)")
    combined = Totals()
    combined.merge(driver)
    combined.merge(workers)
    for name in layers.missing_metrics(context.workload.layers, combined):
        report["problems"].append(f"per-layer metric {name} recorded no call")
    for name, bound in layers.MEMO_BOUNDS.items():
        if report["metrics"][name] > bound:
            report["problems"].append(
                f"{name} = {report['metrics'][name]:.0f} exceeds the memo "
                f"bound {bound}")
    return report


def _forked(work: str, number: int, body) -> dict:
    """Run ``body()`` in a forked child; return the dict it produced."""
    path = os.path.join(work, f"run-{number}.json")
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            report = body()
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(report, handle)
            status = 0
        except BaseException:  # the child must reach os._exit
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"run {number} failed ({status})")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _setup_probe(workload, seed: int) -> float:
    """Set-up seconds of one fresh ``setup`` process, which inherits this
    process's environment."""
    command = [sys.executable, "-m", "perfbench.child", "setup",
               "--workload", workload.name, "--seed", str(seed)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def runner(args, workload) -> dict:
    context = pipeline.setup(workload, args.seed, _STARTED)
    with open(os.path.join(args.entry, "reference.json"),
              encoding="utf-8") as handle:
        reference = json.load(handle)
    window = time.perf_counter()
    deadline = window + args.seconds
    # The first run after set-up reads the lazily imported modules and
    # the inputs from disk and is slower than every later one; its
    # outputs are checked but its times are not reported.
    warmup = _forked(args.work, 0, lambda: measure_once(
        context, args, reference, traced=False))
    runs = []
    setups = [context.setup_s]
    while len(runs) < MIN_RUNS or (
            time.perf_counter() < deadline and len(runs) < MAX_RUNS):
        runs.append(_forked(args.work, len(runs) + 1, lambda: measure_once(
            context, args, reference, traced=False)))
        # The host's speed drifts over seconds to minutes: set-up probes
        # taken between runs see the same drift as the runs.
        setups.append(_setup_probe(workload, args.seed))
    report = {"setups": setups, "warmup": warmup, "runs": runs,
              "window_s": time.perf_counter() - window, "traced": None}
    if args.trace:
        untraced = statistics.median(run["wall_s"] for run in runs)
        report["traced"] = _forked(
            args.work, len(runs) + 1, lambda: measure_once(
                context, args, reference, traced=True,
                untraced_wall=untraced))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("role", choices=("prepare", "setup", "runner"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--entry")
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.role == "prepare":
        report = prepare(args, workload)
    elif args.role == "setup":
        report = {"setup_s": pipeline.setup(workload, args.seed,
                                            _STARTED).setup_s}
    else:
        report = runner(args, workload)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
