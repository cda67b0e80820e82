"""The benchmark's workloads: what one run does, and at what size.

Sizes are fixed so one run fits the benchmark's per-iteration budget on
a 2-CPU host, with inputs that a fresh seed can regenerate in seconds.
Importing this module does not import ``repro``; :func:`scale_config`
builds the :class:`repro.campus.profiles.ScaleConfig` on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["JOBS", "Workload", "WORKLOADS", "scale_config"]

#: Requested worker count of every engine (the 2-CPU host's ``nproc``).
JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``generate`` (write shard logs) or ``rerun`` (ingest → analyze →
    #: render over cached shard logs, twice, over run journal, artifact
    #: and checkpoint stores: cold, then resumed).
    kind: str
    #: ``ScaleConfig`` field values, over the named ``preset`` if given.
    scale: Tuple[Tuple[str, object], ...]
    #: ``analyze_chains(jobs=...)``: ``None`` is the serial stage path.
    analysis_jobs: Optional[int]
    #: Layer groups that must report calls in the traced run.
    layers: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    # The default preset's per-category connection rates over half its
    # chain population.
    "generate": Workload(
        name="generate", kind="generate",
        scale=(("preset", "default"), ("name", "bench-generate"),
               ("nonpub_chain_scale", 1 / 200),
               ("public_chain_scale", 1 / 800),
               ("interception_chain_scale", 1 / 200), ("dga_chains", 20)),
        analysis_jobs=None, layers=("generate",)),
    "rerun": Workload(
        name="rerun", kind="rerun",
        scale=(("preset", "small"),),
        analysis_jobs=JOBS,
        layers=("ingest", "analysis_engine", "render", "resilience")),
}


def scale_config(workload: Workload):
    """The workload's ``ScaleConfig`` (imports ``repro``)."""
    import dataclasses

    from repro.campus.dataset import resolve_scale
    from repro.campus.profiles import ScaleConfig

    fields = dict(workload.scale)
    preset = fields.pop("preset", None)
    if preset is None:
        return ScaleConfig(**fields)
    return dataclasses.replace(resolve_scale(str(preset)), **fields)
