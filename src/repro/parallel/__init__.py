"""Parallel sharded generation, ingestion, and analysis.

Three engines share the same map-reduce discipline — partials merged in
a deterministic index order, workers recording no metrics, the driver
emitting canonical values — so outputs are byte-identical at any
``--jobs``:

* **generation** (:mod:`repro.parallel.generate`): map fixed
  study-window intervals over worker processes that simulate their
  interval's handshakes and write ``ssl-NN.log``/``x509-NN.log`` shard
  files directly — the in-order concatenation reproduces the serial
  dataset write-out byte for byte;
* **ingestion** (:mod:`repro.parallel.engine`): read each distinct
  ``x509.log`` once, map SSL shard files over worker processes, fold
  their chain columns in shard order into the exact chain map a serial
  pass yields;
* **analysis** (:mod:`repro.parallel.analysis`): partition the merged
  chain map by a stable hash of the chain key, enrich each partition
  (classify, categorise, analyze hybrids), merge in partition order.

All three (plus the scanner's ``scan_many``) dispatch through the
**supervised executor** (:mod:`repro.parallel.supervisor`): worker
crashes and hangs are absorbed by bounded retry on a rebuilt pool,
poison tasks are quarantined and recovered in-driver, and an attached
:class:`~repro.resilience.journal.RunJournal` makes a killed run
resumable at task granularity — all without touching the byte-identical
merge guarantee.  See ``docs/RESILIENCE.md`` ("Supervised execution").

See ``docs/PERFORMANCE.md`` for the three models and the determinism
guarantees, and ``benchmarks/test_generate_scaling.py`` /
``benchmarks/test_parallel_scaling.py`` /
``benchmarks/test_analysis_scaling.py`` for the tracked speedup numbers.
"""

from .analysis import (
    AnalysisPartial,
    AnalysisTask,
    EnrichedChains,
    analyze_partitions,
    effective_analysis_jobs,
    partition_index,
    process_partition,
)
from .engine import IngestResult, ingest_logs, ingest_shards
from .generate import (
    GenerateResult,
    GenerateShardResult,
    GenerateTask,
    generate_dataset,
    process_generate_shard,
)
from .shards import ShardSpec, discover_shards, split_zeek_log
from .supervisor import (
    SupervisedRun,
    SupervisorConfig,
    SupervisorIncident,
    run_supervised,
)
from .worker import (
    ShardPartial,
    ShardTask,
    X509Partial,
    X509Task,
    process_shard,
    process_x509_log,
)

__all__ = [
    "AnalysisPartial",
    "AnalysisTask",
    "EnrichedChains",
    "GenerateResult",
    "GenerateShardResult",
    "GenerateTask",
    "IngestResult",
    "ShardPartial",
    "ShardSpec",
    "ShardTask",
    "SupervisedRun",
    "SupervisorConfig",
    "SupervisorIncident",
    "X509Partial",
    "X509Task",
    "run_supervised",
    "analyze_partitions",
    "discover_shards",
    "effective_analysis_jobs",
    "generate_dataset",
    "ingest_logs",
    "ingest_shards",
    "partition_index",
    "process_generate_shard",
    "process_shard",
    "process_x509_log",
    "split_zeek_log",
]
