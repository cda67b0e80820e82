"""Command-line interface: ``certchain-analyze`` / ``repro-experiments``.

Three modes:

* **simulate** (default) — build the synthetic campus dataset and run any
  or all registered experiments, printing paper-vs-measured tables;
* **logs** — analyze real (or simulated) Zeek ``ssl.log``/``x509.log``
  files with the chain-structure pipeline and print the category summary,
  which is what a network operator would point this tool at.  A single
  pair (``--ssl-log``/``--x509-log``) or a directory of shard pairs
  (``--shard-dir``) both go through the parallel ingestion engine;
  ``--jobs N`` fans shards out across worker processes — and switches the
  analysis stage to the sharded enrichment engine — with output
  guaranteed identical to ``--jobs 1`` (see docs/PERFORMANCE.md).
  ``--analysis-cache DIR`` serves a whole repeated analysis from a
  content-addressed artifact store.
* **generate** (``repro-experiments generate --out DIR --jobs N``) —
  run the parallel deterministic generation engine: simulate the
  campus workload and write it as paired ``ssl-NN.log``/``x509-NN.log``
  study-window shards ready for ``--shard-dir`` ingestion, byte-identical
  at any ``--jobs``.

A fourth mode, **bench-report** (``repro-experiments bench-report``),
loads the ``BENCH_*.json`` benchmark history and prints a per-metric
trajectory table with floor margins — see :mod:`repro.obs.benchreport`.

Any mode can emit observability artefacts: ``--metrics-out`` writes a
Prometheus text-exposition (or ``.json``) snapshot of every pipeline
metric, ``--run-report`` writes the diffable per-run JSON summary (stage
timings, throughput, cache hit rates), ``--trace-out`` writes the merged
driver+worker span forest as Chrome-trace/Perfetto JSON, and
``--log-level debug`` turns on structured key=value logging (propagated
into pool workers).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from ..campus.dataset import cached_campus_dataset, resolve_scale
from ..core.categorization import ChainCategory
from ..core.pipeline import ChainStructureAnalyzer
from ..core.report import render_table
from ..faults import FaultPlan, clear_plan, install_plan
from ..obs.exporters import RunReport, write_metrics_file
from ..obs.logging import configure_logging, get_logger, kv
from ..obs.metrics import get_registry
from ..obs.sink import get_sink
from ..obs.traceexport import write_trace
from ..obs.tracing import get_tracer
from ..parallel import (ShardSpec, SupervisorConfig, discover_shards,
                        generate_dataset, ingest_shards)
from ..resilience import (ArtifactStore, CheckpointStore, Quarantine,
                          RunJournal)
from ..truststores import build_public_pki
from ..zeek.format import ZeekFormatError
from .base import registry, run_experiment

__all__ = ["main", "build_parser", "build_generate_parser",
           "package_version"]

log = get_logger(__name__)

#: Logs mode analyzes with the built-in root store alone; said once on
#: stderr so a wrong Table 1/2 is never silent.
NO_CONTEXT_WARNING = (
    "certchain-analyze: warning: no CT index, vendor directory or "
    "cross-sign disclosures for these logs: interception chains are "
    "counted as non-public-only and Table 1 is empty")


def package_version() -> str:
    """The installed distribution version (falls back to the source tree)."""
    try:
        from importlib.metadata import PackageNotFoundError, version
        try:
            return version("repro")
        except PackageNotFoundError:
            pass
    except ImportError:  # pragma: no cover - importlib.metadata is 3.8+
        pass
    from .. import __version__
    return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certchain-analyze",
        description="Certificate chain structure analysis "
                    "(IMC '25 reproduction)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {package_version()}")
    parser.add_argument("--seed", default="0",
                        help="deterministic simulation seed (default 0)")
    parser.add_argument("--scale", default="small",
                        choices=("small", "default"),
                        help="simulation scale preset")
    parser.add_argument("--experiment", "-e", action="append",
                        dest="experiments", metavar="ID",
                        help="experiment id (repeatable); 'all' for every "
                             "registered experiment; omit to list ids")
    parser.add_argument("--ssl-log", help="analyze a Zeek ssl.log instead "
                                          "of simulating")
    parser.add_argument("--x509-log", help="x509.log paired with --ssl-log")
    parser.add_argument("--shard-dir", metavar="DIR",
                        help="analyze a directory of ssl*/x509* shard "
                             "pairs instead of a single log pair")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes for log ingestion and chain "
                             "analysis (default: CPU count for ingestion, "
                             "serial analysis; capped at the CPU and shard "
                             "counts)")
    parser.add_argument("--log-level", metavar="LEVEL", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="structured-logging level "
                             "(overrides REPRO_LOG_LEVEL)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a metrics snapshot on exit "
                             "(Prometheus text; JSON when PATH ends in "
                             ".json)")
    parser.add_argument("--run-report", metavar="PATH",
                        help="write the per-run JSON report (stage timings, "
                             "throughput, cache hit rates)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the merged driver+worker span timeline "
                             "as Chrome-trace/Perfetto JSON (open in "
                             "ui.perfetto.dev)")
    parser.add_argument("--fault-plan", metavar="SPEC",
                        help="deterministic fault injection, e.g. "
                             "'zeek_corrupt_rate=0.05,scan_timeout_rate=0.1' "
                             "(overrides REPRO_FAULT_PLAN); enables "
                             "quarantine of malformed Zeek rows")
    parser.add_argument("--quarantine-out", metavar="PATH",
                        help="tolerate malformed Zeek rows and write every "
                             "dropped row (reason + raw bytes) to PATH as "
                             "JSONL")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="persist per-stage pipeline checkpoints to DIR "
                             "(logs mode)")
    parser.add_argument("--resume", action="store_true",
                        help="serve completed stages from --checkpoint-dir "
                             "instead of recomputing them")
    parser.add_argument("--analysis-cache", metavar="DIR",
                        help="content-addressed AnalysisResult cache: a "
                             "repeat run over unchanged inputs serves the "
                             "whole analysis from DIR (logs mode)")
    _add_supervisor_flags(parser)
    return parser


def _add_supervisor_flags(parser: argparse.ArgumentParser) -> None:
    """The supervised-execution knobs, shared by both parsers."""
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-task deadline for pool workers: a worker "
                             "whose heartbeat is older than SECONDS is "
                             "treated as hung, the pool is rebuilt, and "
                             "the task is retried")
    parser.add_argument("--max-task-retries", type=int, default=None,
                        metavar="N",
                        help="crash/hang retries per task before it is "
                             "quarantined and recovered in-driver "
                             "(default 2)")
    parser.add_argument("--run-journal", metavar="DIR",
                        help="append every completed task (and its partial "
                             "artifact) to a crash-safe journal under DIR; "
                             "with --resume, tasks already journaled are "
                             "served from it instead of recomputed")


def build_generate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments generate",
        description="Generate the synthetic campus dataset as "
                    "ssl-NN.log study-window shards plus one broadcast "
                    "x509.log, ready for --shard-dir ingestion; "
                    "byte-identical at any --jobs")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="directory to write the shard logs into")
    parser.add_argument("--seed", default="0",
                        help="deterministic simulation seed (default 0)")
    parser.add_argument("--scale", default="small",
                        choices=("small", "default"),
                        help="simulation scale preset")
    parser.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                        help="worker processes (default: CPU count; capped "
                             "at the CPU and interval counts)")
    parser.add_argument("--log-level", metavar="LEVEL", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="structured-logging level "
                             "(overrides REPRO_LOG_LEVEL)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a metrics snapshot on exit")
    parser.add_argument("--run-report", metavar="PATH",
                        help="write the per-run JSON report")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the merged driver+worker span timeline "
                             "as Chrome-trace/Perfetto JSON")
    parser.add_argument("--fault-plan", metavar="SPEC",
                        help="install a deterministic fault plan for the "
                             "run; generation draws from its own derived "
                             "RNG streams, so output is identical with or "
                             "without one (asserted by the golden tests)")
    parser.add_argument("--resume", action="store_true",
                        help="with --run-journal, serve shards already "
                             "completed by a previous (killed) run from "
                             "the journal instead of regenerating them")
    _add_supervisor_flags(parser)
    return parser


def _supervisor_config(args: argparse.Namespace,
                       namespace: str) -> Optional[SupervisorConfig]:
    """Build one engine's :class:`SupervisorConfig` from the CLI flags.

    Returns ``None`` when no supervisor flag was given — the engines then
    resolve their built-in defaults.  Each engine journals into its own
    subdirectory of ``--run-journal`` (``ingest``/``analysis``/
    ``generate``) so task ids cannot collide across engines.
    """
    timeout = getattr(args, "task_timeout", None)
    retries = getattr(args, "max_task_retries", None)
    journal_dir = getattr(args, "run_journal", None)
    if timeout is None and retries is None and not journal_dir:
        return None
    config = SupervisorConfig()
    if timeout is not None:
        config.task_timeout = timeout
    if retries is not None:
        config.max_task_retries = retries
    if journal_dir:
        config.journal = RunJournal(os.path.join(journal_dir, namespace))
        config.resume = bool(getattr(args, "resume", False))
    return config


def _print_supervisor_summary(run) -> None:
    """Degradation is never silent: echo the supervisor's incident lines."""
    if run is not None and (run.degraded or run.journal_replayed):
        for line in run.summary_lines():
            print(line)


def _generate(argv: Sequence[str]) -> int:
    parser = build_generate_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level)
    get_registry().reset()
    get_tracer().reset()
    get_sink().reset()
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.resume and not args.run_journal:
        parser.error("--resume requires --run-journal")
    try:
        plan = (FaultPlan.parse(args.fault_plan, seed=args.seed)
                if args.fault_plan else FaultPlan.from_env(seed=args.seed))
    except ValueError as exc:
        print(f"repro-experiments: bad fault plan: {exc}", file=sys.stderr)
        return 2
    if plan is not None and plan.any():
        install_plan(plan)
    supervise = _supervisor_config(args, "generate")
    try:
        result = generate_dataset(args.out, seed=args.seed,
                                  scale=resolve_scale(args.scale),
                                  jobs=args.jobs, supervise=supervise)
    except OSError as exc:
        print(f"repro-experiments: cannot write dataset: {exc}",
              file=sys.stderr)
        return 2
    finally:
        if supervise is not None and supervise.journal is not None:
            supervise.journal.close()
        clear_plan()
    _print_supervisor_summary(result.supervisor)
    print(f"generated {result.ssl_rows:,} connections and "
          f"{result.x509_rows:,} certificates into "
          f"{result.shard_count} ssl shards + broadcast x509.log under "
          f"{result.out_dir} "
          f"(jobs: {result.jobs} of {result.requested_jobs} requested)")
    print(f"analyze with: certchain-analyze --shard-dir {result.out_dir} "
          f"--jobs {result.jobs}")
    return _write_observability(args, ["generate", *argv])


def _analyze_logs(args: argparse.Namespace,
                  plan: Optional[FaultPlan]) -> int:
    # A fault plan or an explicit quarantine destination switches the
    # readers from strict (one bad row aborts) to degraded-but-complete.
    tolerant = plan is not None or bool(args.quarantine_out)
    quarantine = Quarantine() if tolerant else None
    ingest_supervise = _supervisor_config(args, "ingest")
    analysis_supervise = _supervisor_config(args, "analysis")
    try:
        if args.shard_dir:
            corpus_label = args.shard_dir
            shards = discover_shards(args.shard_dir)
        else:
            corpus_label = args.ssl_log
            shards = [ShardSpec(index=0, ssl_path=args.ssl_log,
                                x509_path=args.x509_log)]
        ingest = ingest_shards(shards, jobs=args.jobs, plan=plan,
                               quarantine=quarantine,
                               supervise=ingest_supervise)
    except OSError as exc:
        print(f"certchain-analyze: cannot read log: {exc}", file=sys.stderr)
        return 2
    except ZeekFormatError as exc:
        # str(exc) carries file:line so the operator can jump straight to
        # the offending row.
        print(f"certchain-analyze: malformed Zeek log: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"certchain-analyze: malformed Zeek log: {exc}",
              file=sys.stderr)
        return 2
    checkpoint = (CheckpointStore(args.checkpoint_dir)
                  if args.checkpoint_dir else None)
    artifacts = (ArtifactStore(args.analysis_cache)
                 if args.analysis_cache else None)
    # Without an analysis context interception detection and cross-sign
    # bridging are off; callers embedding the library can supply their
    # own CT index, vendor directory and disclosures.
    print(NO_CONTEXT_WARNING, file=sys.stderr)
    analyzer = ChainStructureAnalyzer(build_public_pki().registry)
    try:
        result = analyzer.analyze_ingest(ingest, checkpoint=checkpoint,
                                         resume=args.resume, jobs=args.jobs,
                                         artifacts=artifacts,
                                         supervise=analysis_supervise)
    finally:
        for config in (ingest_supervise, analysis_supervise):
            if config is not None and config.journal is not None:
                config.journal.close()
    rows = [[row["category"], row["chains"], row["connections"],
             row["client_ips"]]
            for row in result.categorized.summary_rows()]
    print(render_table(["category", "chains", "connections", "client IPs"],
                       rows, title=f"Chain categories in {corpus_label}"))
    print()
    print(f"distinct certificates: {len(ingest.cert_fingerprints):,}")
    print(f"hybrid chains: "
          f"{result.categorized.chain_count(ChainCategory.HYBRID):,}")
    _print_supervisor_summary(ingest.supervisor)
    _print_supervisor_summary(result.supervisor)
    if quarantine is not None:
        print()
        for line in quarantine.summary_lines():
            print(line)
        if result.interception.degraded_count:
            print(f"degraded: {result.interception.degraded_count} chains "
                  f"with CT unavailable (no interception verdict)")
        if args.quarantine_out:
            try:
                quarantine.write(args.quarantine_out)
            except OSError as exc:
                print(f"certchain-analyze: cannot write quarantine: {exc}",
                      file=sys.stderr)
                return 2
            log.info("quarantine written",
                     extra=kv(path=args.quarantine_out,
                              records=len(quarantine)))
    return 0


def _write_observability(args: argparse.Namespace,
                         argv: Sequence[str]) -> int:
    """Write requested snapshot files; returns 0, or 2 on an unwritable path."""
    status = 0
    if args.metrics_out:
        try:
            write_metrics_file(args.metrics_out)
        except OSError as exc:
            print(f"certchain-analyze: cannot write metrics: {exc}",
                  file=sys.stderr)
            status = 2
        else:
            log.info("metrics written", extra=kv(path=args.metrics_out))
    if args.run_report:
        report = RunReport.collect(version=package_version(),
                                   argv=list(argv))
        try:
            report.write(args.run_report)
        except OSError as exc:
            print(f"certchain-analyze: cannot write run report: {exc}",
                  file=sys.stderr)
            status = 2
        else:
            log.info("run report written", extra=kv(path=args.run_report))
    if getattr(args, "trace_out", None):
        try:
            trace = write_trace(args.trace_out)
        except OSError as exc:
            print(f"certchain-analyze: cannot write trace: {exc}",
                  file=sys.stderr)
            status = 2
        else:
            log.info("trace written",
                     extra=kv(path=args.trace_out,
                              events=len(trace["traceEvents"])))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw_argv = list(argv) if argv is not None else sys.argv[1:]
    if raw_argv and raw_argv[0] == "generate":
        return _generate(raw_argv[1:])
    if raw_argv and raw_argv[0] == "bench-report":
        from ..obs import benchreport

        return benchreport.main(raw_argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level)

    # One CLI invocation = one measurement window: zero anything earlier
    # runs in this process recorded so exports describe exactly this run.
    get_registry().reset()
    get_tracer().reset()
    get_sink().reset()

    effective_argv = list(argv) if argv is not None else sys.argv[1:]

    if args.resume and not (args.checkpoint_dir or args.run_journal):
        parser.error("--resume requires --checkpoint-dir or --run-journal")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be positive")
    if args.max_task_retries is not None and args.max_task_retries < 0:
        parser.error("--max-task-retries cannot be negative")
    if args.jobs is not None and not (args.ssl_log or args.x509_log
                                      or args.shard_dir):
        parser.error("--jobs only applies to log analysis "
                     "(--ssl-log/--x509-log or --shard-dir)")
    if args.analysis_cache and not (args.ssl_log or args.x509_log
                                    or args.shard_dir):
        parser.error("--analysis-cache only applies to log analysis "
                     "(--ssl-log/--x509-log or --shard-dir)")

    # Resolve the fault plan (flag wins over environment) and install it
    # ambiently so deep call sites — the scanner inside the §5 revisit,
    # the pipeline's CT lookups — pick it up without parameter threading.
    try:
        if args.fault_plan:
            plan = FaultPlan.parse(args.fault_plan, seed=args.seed)
        else:
            plan = FaultPlan.from_env(seed=args.seed)
    except ValueError as exc:
        print(f"certchain-analyze: bad fault plan: {exc}", file=sys.stderr)
        return 2
    active: Optional[FaultPlan] = None
    if plan is not None and plan.any():
        install_plan(plan)
        active = plan
        log.info("fault plan installed", extra=kv(
            **{k: v for k, v in plan.rates().items() if v}))

    try:
        if args.ssl_log or args.x509_log or args.shard_dir:
            if args.shard_dir and (args.ssl_log or args.x509_log):
                parser.error("--shard-dir cannot be combined with "
                             "--ssl-log/--x509-log")
            if not args.shard_dir and not (args.ssl_log and args.x509_log):
                parser.error("--ssl-log and --x509-log must be given "
                             "together")
            status = _analyze_logs(args, active)
            return status or _write_observability(args, effective_argv)

        known = sorted(registry())
        if not args.experiments:
            print("Registered experiments:")
            for exp_id in known:
                print(f"  {exp_id}")
            print("\nRun with -e <id> (or -e all). Example:\n"
                  "  certchain-analyze --scale small -e table3 -e section5")
            return 0

        wanted = known if "all" in args.experiments else args.experiments
        dataset = cached_campus_dataset(seed=args.seed, scale=args.scale)
        status = 0
        for exp_id in wanted:
            try:
                result = run_experiment(exp_id, dataset)
            except KeyError as exc:
                print(exc, file=sys.stderr)
                status = 2
                continue
            print(result.rendered)
            print()
        return status or _write_observability(args, effective_argv)
    finally:
        clear_plan()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
