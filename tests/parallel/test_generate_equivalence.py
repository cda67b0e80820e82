"""Parallel generation == serial generation, byte for byte.

The generation engine's central guarantee: the ``ssl-NN.log`` shard
files and the broadcast ``x509.log`` are identical at any ``--jobs``,
and their in-order concatenation (data rows; headers are pinned via
``open_time``) reproduces the serial ``build_campus_dataset`` write-out
exactly.  These tests pin that guarantee at every layer: raw bytes,
behaviour under an active fault plan (generation draws from its own
derived streams, so a plan must not perturb it), the closed
generate → ingest → analyze loop against the in-memory pipeline, and
exported counter values.  Every one of those compares the simulator
with itself; the golden digests below pin the bytes themselves, so a
change in how the generator consumes its RNG streams fails here too.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.campus.dataset import build_campus_dataset, resolve_scale
from repro.campus.workload import GENERATION_SHARDS, STUDY_START
from repro.core.categorization import ChainCategory
from repro.core.chain import aggregate_chains
from repro.faults import FaultPlan, clear_plan, install_plan
from repro.obs.metrics import get_registry
from repro.parallel import discover_shards, generate_dataset, ingest_shards
from repro.parallel import generate as generate_module

JOBS_MATRIX = [1, 2, 4]
SEED = "gen-eq"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: SHA-256 of every file ``generate_dataset(seed="gen-eq", scale=small,
#: jobs=1)`` writes.  Generation does not depend on ``PYTHONHASHSEED``.
GOLDEN_SHA256 = {
    "ssl-00.log": "2597e1c1b97dbd81689921b1fae6797240a6939d23cec351967e5dd50b1a9d9f",
    "ssl-01.log": "6b91d5c8438db65eb8c12fb5e88490ba7b55132293edc7c34176650125dab616",
    "ssl-02.log": "0eaacea5ae24a717dfac92c733e8e7b4194c3d3add00639bb4e65e81b02d998b",
    "ssl-03.log": "6301ed7d33780d01361b06c9136bbb0da25c34f52488f163cf1a35e189c8f902",
    "ssl-04.log": "c4199751ca4ba4234fdd84f5dc2c73510a3ec362b74a3670266611c3a7aed84c",
    "ssl-05.log": "c48cb72fad3c557f1fc117f28bb2a50f4c26d097cf3ba7d5200f5bfdd042cbea",
    "ssl-06.log": "ef5dee8149ae39694fbcd8bb9d39e7fc7824c5b3422deec0af7b1e4ec455270c",
    "ssl-07.log": "8e001e7537f96c7911001992453bb0f2e80d161172d3c0fd227d33ca816dbc90",
    "ssl-08.log": "303b18e6a799f7e15394e75445712f216101d83adb7f31ed47f79cace570b580",
    "ssl-09.log": "e19e84da122ce512c4ad0a24f431ff249bd89aeb217a283655364ffa1a7fc43f",
    "ssl-10.log": "e38729a0ee56f5522cd8e4c91b2d65453320a63d0e374f79e7e12363933c3911",
    "ssl-11.log": "70a78e18242d6865c05bcd51dfb986a6420db434af675af9ca57548fea9cf9e6",
    "x509.log": "fbd50de4dc6f0cd9095ca8ae1361a0c21414c7bf4d76ad0e2335930959879b51",
}


def read_all(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def data_rows(text):
    return [line for line in text.splitlines(keepends=True)
            if not line.startswith("#")]


@pytest.fixture(scope="module")
def serial_logs(tmp_path_factory):
    """The reference: the serial builder's single ssl/x509 pair."""
    out = tmp_path_factory.mktemp("serial")
    dataset = build_campus_dataset(seed=SEED, scale=resolve_scale("small"))
    ssl_path, x509_path = dataset.write_zeek_logs(str(out),
                                                  open_time=STUDY_START)
    return {"dataset": dataset, "ssl": read_all(ssl_path),
            "x509": read_all(x509_path)}


@pytest.fixture(scope="module")
def generated(tmp_path_factory, serial_logs):
    """One generation run per jobs value, pool path forced via cpu_count."""
    outputs = {}
    patcher = pytest.MonkeyPatch()
    patcher.setattr(os, "cpu_count", lambda: 4)
    try:
        for jobs in JOBS_MATRIX:
            out = str(tmp_path_factory.mktemp(f"gen-j{jobs}"))
            get_registry().reset()
            result = generate_dataset(out, seed=SEED,
                                      scale=resolve_scale("small"),
                                      jobs=jobs)
            outputs[jobs] = {"out": out, "result": result}
    finally:
        patcher.undo()
    return outputs


class TestGoldenByteIdentity:
    def test_files_match_golden_digests(self, generated):
        out = generated[1]["out"]
        digests = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
        assert digests == GOLDEN_SHA256

    def test_layout_is_ssl_shards_plus_broadcast_x509(self, generated):
        for jobs, run in generated.items():
            names = sorted(os.listdir(run["out"]))
            expected = [f"ssl-{s:02d}.log" for s in range(GENERATION_SHARDS)]
            assert names == expected + ["x509.log"], (jobs, names)

    def test_x509_log_byte_identical_to_serial(self, generated, serial_logs):
        for jobs, run in generated.items():
            merged = read_all(os.path.join(run["out"], "x509.log"))
            assert merged == serial_logs["x509"], f"jobs={jobs}"

    def test_ssl_shard_concatenation_matches_serial(self, generated,
                                                    serial_logs):
        reference = data_rows(serial_logs["ssl"])
        assert reference  # non-trivial corpus
        for jobs, run in generated.items():
            concatenated = []
            for shard in range(GENERATION_SHARDS):
                text = read_all(os.path.join(run["out"],
                                             f"ssl-{shard:02d}.log"))
                concatenated.extend(data_rows(text))
            assert concatenated == reference, f"jobs={jobs}"

    def test_every_file_identical_across_jobs(self, generated):
        names = sorted(os.listdir(generated[1]["out"]))
        for name in names:
            baseline = read_all(os.path.join(generated[1]["out"], name))
            for jobs in JOBS_MATRIX[1:]:
                other = read_all(os.path.join(generated[jobs]["out"], name))
                assert other == baseline, (name, jobs)

    def test_row_tallies_match_the_files(self, generated, serial_logs):
        for run in generated.values():
            result = run["result"]
            assert result.ssl_rows == len(data_rows(serial_logs["ssl"]))
            assert result.x509_rows == len(data_rows(serial_logs["x509"]))
            assert result.shard_count == GENERATION_SHARDS
            assert all(spec.x509_path.endswith("x509.log")
                       for spec in result.shards)


class TestFaultPlanIsolation:
    def test_generation_identical_under_active_fault_plan(self, tmp_path,
                                                          generated):
        """Generation draws from its own derived RNG streams: an ambient
        fault plan (which perturbs scans and log reads) must not move a
        single generated byte."""
        out = str(tmp_path / "faulted")
        install_plan(FaultPlan(seed=99, scan_timeout_rate=0.5,
                               scan_truncated_chain_rate=0.5,
                               zeek_corrupt_rate=0.2, ct_outage_rate=0.3))
        try:
            generate_dataset(out, seed=SEED, scale=resolve_scale("small"),
                             jobs=1)
        finally:
            clear_plan()
        for name in sorted(os.listdir(generated[1]["out"])):
            assert read_all(os.path.join(out, name)) == \
                read_all(os.path.join(generated[1]["out"], name)), name


class TestClosedLoop:
    def test_shard_dir_ingest_reproduces_tables_exactly(self, generated,
                                                        serial_logs):
        """The tentpole loop: parallel-generated shards, discovered and
        ingested via the shard engine, must reproduce Tables 1/2/3 (and
        the full category orderings) of the in-memory pipeline."""
        dataset = serial_logs["dataset"]
        serial = dataset.analyzer().analyze_chains(
            aggregate_chains(dataset.joined()))
        reference = _tables(serial)
        assert reference["table2"]  # non-trivial corpus
        for jobs, run in generated.items():
            shards = discover_shards(run["out"])
            assert len(shards) == GENERATION_SHARDS
            ingest = ingest_shards(shards, jobs=1)
            assert ingest.missing_certs == 0, f"jobs={jobs}"
            result = dataset.analyzer().analyze_chains(ingest.chains)
            assert _tables(result) == reference, f"jobs={jobs}"


def _tables(result):
    return {
        "table1": result.interception.category_table(result.chains),
        "table2": result.categorized.summary_rows(),
        "table3": result.hybrid.table3_rows(),
        "orders": {c.value: [chain.key
                             for chain in result.categorized.chains(c)]
                   for c in ChainCategory},
    }


class TestJobsAndMetrics:
    def test_jobs_clamped_and_requested_recorded(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        result = generate_dataset(str(tmp_path / "clamp"), seed=SEED,
                                  scale=resolve_scale("small"), jobs=64)
        assert result.requested_jobs == 64
        assert result.jobs == 2

    def test_counter_metrics_identical_across_jobs(self, tmp_path_factory,
                                                   monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        snapshots = []
        for jobs in JOBS_MATRIX:
            out = str(tmp_path_factory.mktemp(f"metrics-j{jobs}"))
            get_registry().reset()
            generate_dataset(out, seed=SEED, scale=resolve_scale("small"),
                             jobs=jobs)
            snapshot = get_registry().snapshot()
            snapshots.append({
                family: [(s["labels"], s["value"]) for s in data["samples"]]
                for family, data in snapshot.items()
                if data["kind"] == "counter"})
        assert any(labels == {"direction": "written", "path": "ssl"}
                   and value > 0
                   for labels, value in snapshots[0]["repro_zeek_rows_total"])
        assert snapshots[0]["repro_generate_shards_total"] == \
            [({"outcome": "ok"}, float(GENERATION_SHARDS))]
        for snapshot in snapshots[1:]:
            assert snapshot == snapshots[0]


class TestBenchmarkLayerNames:
    def test_generate_layer_records_every_required_span(self, tmp_path,
                                                        monkeypatch):
        """The benchmark times generation by wrapping call sites at the
        names it looks up (``generate_shard``, ``ZeekLogWriter.write_row``,
        ``ssl_record_from_connection``, ...).  A worker that stops calling
        one of them, or a name that disappears, breaks the traced
        benchmark run; this catches it in the test suite instead."""
        monkeypatch.syspath_prepend(REPO_ROOT)
        from perfbench import layers
        from perfbench.tracer import Tracer

        # A cached worker context would skip the context-build spans.
        monkeypatch.setattr(generate_module, "_CONTEXT_CACHE", {})
        handoff = tmp_path / "handoff"
        handoff.mkdir()
        tracer = Tracer(str(handoff))
        layers.install(tracer)
        try:
            result = generate_module.generate_dataset(
                str(tmp_path / "out"), seed=SEED,
                scale=resolve_scale("small"), jobs=1)
        finally:
            tracer.restore()
        assert layers.missing_metrics(["generate"], tracer.totals) == []
        # Every row, SSL and X509, is written through ``write_row``.
        assert tracer.totals.calls["generate.write_s"] == \
            result.ssl_rows + result.x509_rows
