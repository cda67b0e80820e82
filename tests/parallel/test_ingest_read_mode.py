"""Ingest reads per line below ``VECTORISE_MIN_BYTES`` and vectorised at
or above it, with the same result either way.

The constant is patched to put one corpus on each side of it.  Chains
(keys, insertion order, usage), fingerprints, tallies and quarantine
records must match; the metric exports may differ only in the columnar
reader's decode-mode split.
"""

from __future__ import annotations

import sys

import pytest

from repro.obs.exporters import render_prometheus
from repro.obs.metrics import get_registry
from repro.parallel import discover_shards, engine, generate_dataset
from repro.resilience import Quarantine

#: The two families that count how rows were decoded, not what they hold.
MODE_FAMILIES = ("repro_columnar_rows_total", "repro_columnar_runs_total")


def _corrupt_row(path, column, value):
    """Overwrite one cell of the file's second data row."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    index = [i for i, line in enumerate(lines)
             if line and line[0] != "#"][1]
    cells = lines[index].split("\t")
    cells[column] = value
    lines[index] = "\t".join(cells)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    """A generated ``small`` corpus with one bad SSL row (an unparseable
    port) and one bad X509 row (a cell too few)."""
    out = tmp_path_factory.mktemp("read-mode")
    generate_dataset(str(out), seed="read-mode", scale="small", jobs=1)
    _corrupt_row(out / "ssl-03.log", 5, "https")  # id.resp_p
    with open(out / "x509.log", encoding="utf-8") as handle:
        text = handle.read()
    row = [line for line in text.split("\n")
           if line and line[0] != "#"][1]
    with open(out / "x509.log", "w", encoding="utf-8") as handle:
        handle.write(text.replace(row, row.rsplit("\t", 1)[0], 1))
    return discover_shards(str(out))


def _ingest(shards, monkeypatch, *, vectorise, jobs):
    monkeypatch.setattr(engine, "VECTORISE_MIN_BYTES",
                        0 if vectorise else sys.maxsize)
    get_registry().reset()
    quarantine = Quarantine()
    result = engine.ingest_shards(shards, jobs=jobs, quarantine=quarantine)
    export = {}
    for line in render_prometheus().splitlines():
        if line and line[0] != "#" and "_seconds" not in line:
            family = line.split("{")[0].split(" ")[0]
            export.setdefault(family, []).append(line)
    return {
        "chains": [(key,
                    tuple(cert.fingerprint for cert in chain.certificates),
                    chain.usage, list(chain.usage.ports.items()))
                   for key, chain in result.chains.items()],
        "fingerprints": result.cert_fingerprints,
        "tallies": (result.ssl_rows, result.x509_rows, result.joined,
                    result.missing_certs, result.aggregated,
                    result.skipped_empty),
        "quarantine": quarantine.records,
        "export": export,
    }


@pytest.mark.parametrize("jobs", [1, 2])
def test_both_read_modes_ingest_identically(shards, monkeypatch, jobs):
    monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
    line = _ingest(shards, monkeypatch, vectorise=False, jobs=jobs)
    vector = _ingest(shards, monkeypatch, vectorise=True, jobs=jobs)
    assert line["chains"] and line["chains"] == vector["chains"]
    assert line["fingerprints"] == vector["fingerprints"]
    assert line["tallies"] == vector["tallies"]
    assert line["tallies"][3]  # the bad X509 row's certificate is missing
    assert [(record.reason, record.line)
            for record in line["quarantine"]] == [("column-count", 10),
                                                  ("field-parse", 10)]
    assert line["quarantine"] == vector["quarantine"]
    modes = {family: (line["export"].pop(family),
                      vector["export"].pop(family))
             for family in MODE_FAMILIES}
    assert line["export"] == vector["export"]
    rows = line["tallies"][0] + line["tallies"][1]
    assert modes["repro_columnar_rows_total"][0] == [
        f'repro_columnar_rows_total{{mode="line"}} {rows}',
        'repro_columnar_rows_total{mode="vectorized"} 0']
    assert modes["repro_columnar_runs_total"][0] == [
        'repro_columnar_runs_total{outcome="fallback"} 0',
        'repro_columnar_runs_total{outcome="vectorized"} 0']
    # Above the constant the clean runs vectorise and the two runs
    # holding a bad row fall back to the per-line path.
    assert modes["repro_columnar_rows_total"][1][1] != \
        'repro_columnar_rows_total{mode="vectorized"} 0'
    assert modes["repro_columnar_runs_total"][1][0] == \
        'repro_columnar_runs_total{outcome="fallback"} 2'
