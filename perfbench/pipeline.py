"""One run of each workload, its inputs, and the checks on its outputs.

Every call into the program goes through a module attribute looked up
at call time (``engine.ingest_shards``, ``base.run_experiment``), so the
wrappers :mod:`perfbench.layers` installs see it.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .shapes import JOBS, Workload, scale_config

__all__ = ["EXPERIMENT_IDS", "IngestedDataset", "Context", "Outcome",
           "setup", "run_once", "check", "prepare", "table_digests",
           "compare_tables", "dir_digest", "truth_agreement",
           "visible_chains", "generated_truth_agreement", "trace_facts"]

#: Tables 1–4/6–8 and Figures 1/4–8.
EXPERIMENT_IDS = ("table1", "table2", "table3", "table4", "table6",
                  "table7", "table8", "figure1", "figure4", "figure5",
                  "figure6", "figure7", "figure8")

#: Simulator truth → Table 2 category name, as the end-to-end tests map it.
TRUTH_TO_CATEGORY = {"public": "PUBLIC_ONLY", "nonpub": "NON_PUBLIC_ONLY",
                     "hybrid": "HYBRID", "interception": "INTERCEPTION"}


class IngestedDataset:
    """The two things ``run_experiment`` reads for the 13 paper ids."""

    def __init__(self, result, scale):
        self._result = result
        self.scale = scale

    def analyze(self):
        return self._result


@dataclass
class Context:
    """What set-up builds before the first input or output byte."""

    workload: Workload
    seed: int
    scale: Any
    setup_s: float
    analyzer: Any = None
    specs: Any = None
    #: Every ``EnrichedChains`` that ``analyze_partitions`` returned
    #: since the last run (filled by a return-value tap).
    enrichments: List[Any] = field(default_factory=list)


@dataclass
class Outcome:
    """One run: its wall clock and the public results it returned."""

    wall_s: float
    #: SSL rows written (generate) or read (every pass).
    rows: int
    peak_rss_mb: float
    rendered: List[Dict[str, str]] = field(default_factory=list)
    digest: str = ""
    ingests: List[Any] = field(default_factory=list)
    results: List[Any] = field(default_factory=list)
    generated: Any = None
    enriched: List[Any] = field(default_factory=list)
    passes_s: List[float] = field(default_factory=list)
    #: Per pass, the ``SupervisedRun`` of every engine dispatch in it.
    pass_runs: List[List[Any]] = field(default_factory=list)
    bytes_read: int = 0
    bytes_written: int = 0


def setup(workload: Workload, seed: int, started: float) -> Context:
    """Import the program and, for analysis workloads, the analyzer's
    context; ``started`` is when the workload process began."""
    # Importing every module a run calls is part of set-up.
    import repro.experiments  # noqa: F401 - registers the experiment ids
    import repro.parallel  # noqa: F401
    import repro.resilience  # noqa: F401

    scale = scale_config(workload)
    context = Context(workload=workload, seed=seed, scale=scale, setup_s=0.0)
    if workload.kind != "generate":
        from repro.campus.dataset import build_generation_context
        from repro.campus.profiles import build_vendor_directory
        from repro.core.crosssign import CrossSignDisclosures
        from repro.core.pipeline import ChainStructureAnalyzer

        generation = build_generation_context(seed=seed, scale=scale)
        context.analyzer = ChainStructureAnalyzer(
            generation.registry, ct_index=generation.ct_index,
            vendor_directory=build_vendor_directory(),
            disclosures=CrossSignDisclosures.from_pki(generation.pki))
        context.specs = generation.specs
    context.setup_s = time.perf_counter() - started
    return context


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(path) for path in paths)


def _analyze_pass(context: Context, inputs: str, outcome: Outcome, *,
                  stores: Optional[str] = None, resume: bool = False) -> None:
    from repro.experiments import base
    from repro.parallel import engine, shards
    from repro.resilience.quarantine import Quarantine

    checkpoint = artifacts = None
    supervise: Dict[str, Any] = {"ingest": None, "analysis": None}
    if stores is not None:
        from repro.parallel.supervisor import SupervisorConfig
        from repro.resilience.checkpoint import ArtifactStore, CheckpointStore
        from repro.resilience.journal import RunJournal

        for name in supervise:
            supervise[name] = SupervisorConfig(
                journal=RunJournal(os.path.join(stores, "journal", name)),
                resume=resume)
        checkpoint = CheckpointStore(os.path.join(stores, "checkpoints"))
        artifacts = ArtifactStore(os.path.join(stores, "artifacts"))
    try:
        specs = shards.discover_shards(inputs)
        ingest = engine.ingest_shards(specs, jobs=JOBS,
                                      quarantine=Quarantine(),
                                      supervise=supervise["ingest"])
        result = context.analyzer.analyze_chains(
            ingest.chains, jobs=context.workload.analysis_jobs,
            checkpoint=checkpoint, resume=resume, artifacts=artifacts,
            supervise=supervise["analysis"])
        view = IngestedDataset(result, context.scale)
        rendered = {exp_id: base.run_experiment(exp_id, view).rendered
                    for exp_id in EXPERIMENT_IDS}
    finally:
        for config in supervise.values():
            if config is not None:
                config.journal.close()
    enriched = list(context.enrichments)
    context.enrichments.clear()
    outcome.enriched.extend(enriched)
    outcome.pass_runs.append(
        [run for run in [ingest.supervisor]
         + [item.supervisor for item in enriched] if run is not None])
    outcome.ingests.append(ingest)
    outcome.results.append(result)
    outcome.rendered.append(rendered)
    outcome.rows += ingest.ssl_rows
    outcome.bytes_read += _file_bytes(
        [spec.ssl_path for spec in specs]
        + [spec.x509_path for spec in specs])


def run_once(context: Context, entry: str, work: str) -> Outcome:
    """One timed run of the workload over the cached inputs in ``entry``.

    Output directories and stores are emptied before the clock starts;
    the returned outcome carries everything :func:`check` needs.
    """
    kind = context.workload.kind
    outcome = Outcome(wall_s=0.0, rows=0, peak_rss_mb=0.0)
    if kind == "generate":
        from repro.parallel import generate

        out = os.path.join(work, "generated")
        shutil.rmtree(out, ignore_errors=True)
        started = time.perf_counter()
        result = generate.generate_dataset(out, seed=context.seed,
                                           scale=context.scale, jobs=JOBS)
        outcome.wall_s = time.perf_counter() - started
        outcome.peak_rss_mb = _peak_rss_mb()
        outcome.generated = result
        outcome.rows = result.ssl_rows
        outcome.digest = dir_digest(out)
        outcome.bytes_written = _file_bytes(
            os.path.join(out, name) for name in os.listdir(out))
        return outcome

    inputs = os.path.join(entry, "inputs")
    stores = None
    if kind == "rerun":
        stores = os.path.join(work, "stores")
        shutil.rmtree(stores, ignore_errors=True)
    started = time.perf_counter()
    _analyze_pass(context, inputs, outcome, stores=stores)
    if kind == "rerun":
        cold = time.perf_counter()
        outcome.passes_s.append(cold - started)
        _analyze_pass(context, inputs, outcome, stores=stores, resume=True)
        outcome.passes_s.append(time.perf_counter() - cold)
    outcome.wall_s = time.perf_counter() - started
    outcome.peak_rss_mb = _peak_rss_mb()
    if stores is not None:
        outcome.bytes_written = _file_bytes(
            os.path.join(root, name)
            for root, _, names in os.walk(stores) for name in names)
    return outcome


# -- output checks -------------------------------------------------------------


def table_digests(rendered: Dict[str, str]) -> Dict[str, str]:
    return {exp_id: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for exp_id, text in rendered.items()}


def compare_tables(rendered: Dict[str, str],
                   reference: Dict[str, str]) -> List[str]:
    """Ids whose rendering is not byte-identical to the reference."""
    digests = table_digests(rendered)
    return [exp_id for exp_id in EXPERIMENT_IDS
            if digests.get(exp_id) != reference.get(exp_id)]


def dir_digest(directory: str) -> str:
    """SHA-256 over every file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        digest.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(directory, name), "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
        digest.update(b"\0")
    return digest.hexdigest()


def truth_agreement(result, specs) -> float:
    """Share of analyzed chains whose Table 2 category is the truth's."""
    from repro.core.categorization import ChainCategory

    truth = {spec.key: spec.category_truth for spec in specs}
    agree = total = 0
    for category in ChainCategory:
        for chain in result.categorized.chains(category):
            total += 1
            agree += TRUTH_TO_CATEGORY.get(truth.get(chain.key)) \
                == category.name
    return agree / total if total else 0.0


def visible_chains(seed: int, scale) -> List[List[str]]:
    """Certificate fingerprints of every chain the simulator's truth
    (``GenerationContext.specs``) gives a monitor-visible connection."""
    from repro.campus.dataset import build_generation_context

    context = build_generation_context(seed=seed, scale=scale)
    return [[certificate.fingerprint for certificate in spec.chain]
            for spec in context.specs
            if context.generator.plan_for(spec).n_visible]


def generated_truth_agreement(out_dir: str,
                              chains: List[List[str]]) -> float:
    """Share of ``chains`` whose every certificate reached ``x509.log``."""
    written = set()
    with open(os.path.join(out_dir, "x509.log"), encoding="utf-8") as handle:
        for line in handle:
            if not line.startswith("#"):
                written.add(line.split("\t", 2)[1])
    agree = sum(all(fingerprint in written for fingerprint in chain)
                for chain in chains)
    return agree / len(chains) if chains else 0.0


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    truth_agreement: float = 0.0
    problems: List[str] = field(default_factory=list)
    supervisor: Dict[str, int] = field(default_factory=dict)
    jobs: Dict[str, List[int]] = field(default_factory=dict)


def _supervised_runs(outcome: Outcome) -> List[Any]:
    runs = [ingest.supervisor for ingest in outcome.ingests]
    runs += [enriched.supervisor for enriched in outcome.enriched]
    if outcome.generated is not None:
        runs.append(outcome.generated.supervisor)
    return [run for run in runs if run is not None]


def check(context: Context, outcome: Outcome, reference: dict,
          work: str) -> Checked:
    """Output checks and failure accounting from public results only.

    Operations attempted/failed, summed over: rows (quarantined rows and
    missing-certificate joins fail), pool tasks (quarantined tasks fail,
    whether recovered in-driver or dropped), chains given a CT verdict
    (degraded verdicts fail), and output checks (mismatches fail).
    """
    checked = Checked()
    supervisor = {"tasks": 0, "incidents": 0, "fallbacks": 0,
                  "pool_rebuilds": 0}
    for run in _supervised_runs(outcome):
        supervisor["tasks"] += len(run.results)
        supervisor["incidents"] += len(run.incidents)
        supervisor["fallbacks"] += run.fallbacks
        supervisor["pool_rebuilds"] += run.pool_rebuilds
        checked.attempted += len(run.results)
        checked.failed += len(run.quarantined)
    checked.supervisor = supervisor

    if outcome.generated is not None:
        generated = outcome.generated
        checked.attempted += generated.ssl_rows + generated.x509_rows + 1
        checked.jobs["generate"] = [generated.requested_jobs, generated.jobs]
        if outcome.digest != reference["digest"]:
            checked.failed += 1
            checked.problems.append(
                "generated bytes differ from the jobs=1 reference")
        checked.truth_agreement = generated_truth_agreement(
            os.path.join(work, "generated"), reference["visible_chains"])
        return checked

    for ingest in outcome.ingests:
        quarantined = len(ingest.quarantine) if ingest.quarantine else 0
        checked.attempted += ingest.ssl_rows + ingest.x509_rows
        checked.failed += quarantined + ingest.missing_certs
        checked.jobs["ingest"] = [ingest.requested_jobs, ingest.jobs]
    for enriched in outcome.enriched:
        checked.jobs["analysis"] = [JOBS, enriched.effective_jobs]
    for result in outcome.results:
        checked.attempted += len(result.chains)
        checked.failed += result.interception.degraded_count
    for number, rendered in enumerate(outcome.rendered):
        checked.attempted += len(EXPERIMENT_IDS)
        mismatched = compare_tables(rendered, reference["tables"])
        checked.failed += len(mismatched)
        if mismatched:
            checked.problems.append(
                f"pass {number}: tables differ from the in-memory "
                f"reference: {', '.join(mismatched)}")
    agreements = [truth_agreement(result, context.specs)
                  for result in outcome.results]
    checked.truth_agreement = min(agreements)
    return checked


def trace_facts(outcome: Outcome, checked: Checked) -> dict:
    """Per-layer counts read off one run's public results."""
    facts: Dict[str, Any] = {"supervisor": dict(checked.supervisor)}
    generated = outcome.generated
    if generated is not None:
        facts["generate.rows"] = generated.ssl_rows + generated.x509_rows
        facts["generate.bytes_written"] = outcome.bytes_written
        return facts
    ingests = outcome.ingests
    x509_rows = sum(ingest.x509_rows for ingest in ingests)
    certificates = sum(len(ingest.cert_fingerprints) for ingest in ingests)
    facts["ingest.rows"] = sum(ingest.ssl_rows for ingest in ingests) \
        + x509_rows
    facts["ingest.bytes_read"] = outcome.bytes_read
    facts["ingest.x509_rows_per_cert"] = (x509_rows / certificates
                                          if certificates else 0.0)
    # Chains analyzed over every pass, as CT lookups are counted: on
    # ``rerun`` both sum the cold and the resumed pass.
    facts["chains"] = sum(len(result.chains) for result in outcome.results)
    if outcome.passes_s:
        facts["resilience.cold_s"], facts["resilience.resume_s"] = \
            outcome.passes_s
        resumed = outcome.pass_runs[1]
        tasks = sum(len(run.results) for run in resumed)
        facts["resilience.replayed_frac"] = (
            sum(run.journal_replayed for run in resumed) / tasks
            if tasks else 0.0)
        facts["resilience.bytes_written"] = outcome.bytes_written
    return facts


# -- inputs and references -----------------------------------------------------


def _split_by_interval(ssl_log: str, out_dir: str) -> None:
    """Write ``ssl-NN.log`` per study-window interval, as generation does.

    Rows are in interval-major order already; each piece repeats the
    log's header and footer, and ``discover_shards`` pairs every piece
    with the one broadcast ``x509.log``.
    """
    from repro.campus.workload import (GENERATION_SHARDS, STUDY_START,
                                       shard_window)

    origin = STUDY_START.timestamp()
    _, span = shard_window(0)
    header: List[str] = []
    footer: List[str] = []
    pieces: List[List[str]] = [[] for _ in range(GENERATION_SHARDS)]
    with open(ssl_log, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                (footer if any(pieces) else header).append(line)
                continue
            ts = float(line.split("\t", 1)[0])
            index = min(GENERATION_SHARDS - 1, max(0, int((ts - origin)
                                                          // span)))
            pieces[index].append(line)
    for index, rows in enumerate(pieces):
        path = os.path.join(out_dir, f"ssl-{index:02d}.log")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(header)
            handle.writelines(rows)
            handle.writelines(footer)


def prepare(workload: Workload, seed: int, target: str) -> dict:
    """Build the workload's inputs and reference under ``target``.

    Analysis workloads: the in-memory ``build_campus_dataset`` analysis
    rendered through ``run_experiment`` is the reference, and its Zeek
    logs, split per interval beside one broadcast ``x509.log``, are the
    inputs.  ``generate``: a ``jobs=1`` generation's output digest.
    """
    import repro.experiments  # noqa: F401 - registers the experiment ids
    from repro.experiments import base

    scale = scale_config(workload)
    if workload.kind == "generate":
        from repro.parallel import generate

        out = os.path.join(target, "generated")
        result = generate.generate_dataset(out, seed=seed, scale=scale,
                                           jobs=1)
        reference = {"digest": dir_digest(out), "ssl_rows": result.ssl_rows,
                     "x509_rows": result.x509_rows,
                     "visible_chains": visible_chains(seed, scale)}
        shutil.rmtree(out)
        return reference

    from repro.campus.dataset import build_campus_dataset
    from repro.campus.workload import STUDY_START

    dataset = build_campus_dataset(seed=seed, scale=scale)
    rendered = {exp_id: base.run_experiment(exp_id, dataset).rendered
                for exp_id in EXPERIMENT_IDS}
    logs = os.path.join(target, "logs")
    ssl_log, x509_log = dataset.write_zeek_logs(logs, open_time=STUDY_START)
    inputs = os.path.join(target, "inputs")
    os.makedirs(inputs)
    _split_by_interval(ssl_log, inputs)
    os.replace(x509_log, os.path.join(inputs, "x509.log"))
    shutil.rmtree(logs)
    return {"tables": table_digests(rendered),
            "ssl_rows": dataset.connection_count,
            "chains": len(dataset.analyze().chains)}
