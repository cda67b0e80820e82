"""Columnar reader equivalence: byte-for-byte parity with the row readers.

The struct-of-arrays reader promises *identical observable behavior* to
the legacy and compiled per-line readers — same row dicts, same
quarantine ``file:line`` records under fault plans, same strict-mode
errors.  These tests drive all three readers over the same generated
files (hand-built corners plus Hypothesis-generated tables) and compare
everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.parallel import generate_dataset
from repro.resilience import Quarantine
from repro.zeek import ZeekFormatError
from repro.zeek.columnar import InternTable, read_zeek_log_columnar
from repro.zeek.format import read_zeek_log

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

HEADER = (
    "#separator \\x09\n"
    "#set_separator\t,\n"
    "#empty_field\t(empty)\n"
    "#unset_field\t-\n"
    "#path\tssl\n"
    "#fields\tts\tuid\tid.resp_p\tserver_name\testablished"
    "\tcert_chain_fps\n"
    "#types\ttime\tstring\tport\tstring\tbool\tvector[string]\n"
)


def _row(ts="1453939200.000000", uid="C1", port="443",
         name="example.com", est="T", fps="aa,bb"):
    return f"{ts}\t{uid}\t{port}\t{name}\t{est}\t{fps}\n"


def _write(tmp_path, text, name="ssl.log"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_all_three(path, **kwargs):
    columnar = read_zeek_log_columnar(
        path, quarantine=kwargs.get("quarantine"),
        faults=kwargs.get("faults")).to_rows()
    compiled = read_zeek_log(path, compiled=True, **kwargs)[1]
    legacy = read_zeek_log(path, compiled=False, **kwargs)[1]
    return columnar, compiled, legacy


def _assert_parity(tmp_path, text):
    path = _write(tmp_path, text)
    columnar, compiled, legacy = _read_all_three(path)
    assert columnar == compiled == legacy
    return columnar


class TestRowParity:
    def test_typed_values_match_row_readers(self, tmp_path):
        rows = _assert_parity(tmp_path, HEADER + _row() + _row(
            ts="1453939201.500000", uid="C2", port="8443",
            name="example.org", est="F", fps="cc"))
        assert rows[0]["ts"] == 1453939200.0
        assert rows[0]["id.resp_p"] == 443
        assert rows[0]["established"] is True
        assert rows[0]["cert_chain_fps"] == ["aa", "bb"]
        assert rows[1]["established"] is False

    def test_unset_and_empty_sentinels(self, tmp_path):
        rows = _assert_parity(
            tmp_path,
            HEADER + _row(ts="-", uid="-", port="-", name="-", est="-",
                          fps="-") + _row(name="(empty)", fps="(empty)"))
        assert rows[0] == {"ts": None, "uid": None, "id.resp_p": None,
                           "server_name": None, "established": None,
                           "cert_chain_fps": None}
        assert rows[1]["server_name"] == ""
        assert rows[1]["cert_chain_fps"] == []

    def test_escaped_separators_in_cells(self, tmp_path):
        rows = _assert_parity(
            tmp_path, HEADER + _row(name="tab\\x09here", fps="nl\\x0athere"))
        assert rows[0]["server_name"] == "tab\there"
        assert rows[0]["cert_chain_fps"] == ["nl\nthere"]

    def test_mid_file_header_relabel(self, tmp_path):
        # A second #path/#fields block mid-file: segments must break and
        # the final table.path must report the last seen label.
        text = (HEADER + _row()
                + "#path\tssl-renamed\n"
                + "#fields\tts\tuid\n#types\ttime\tstring\n"
                + "1453939300.000000\tC9\n")
        path = _write(tmp_path, text)
        table = read_zeek_log_columnar(path)
        assert table.path == "ssl-renamed"
        assert table.to_rows() == read_zeek_log(path)[1]
        assert [s.fields for s in table.segments] == [
            ("ts", "uid", "id.resp_p", "server_name", "established",
             "cert_chain_fps"),
            ("ts", "uid")]

    def test_blank_lines_and_footer(self, tmp_path):
        _assert_parity(tmp_path, HEADER + _row() + "\n" + _row(uid="C2")
                       + "#close\t2016-01-28-00-00-01\n")

    def test_no_trailing_newline(self, tmp_path):
        _assert_parity(tmp_path, HEADER + _row() + _row(uid="C2").rstrip("\n"))

    def test_carriage_returns_fall_back_to_text_scan(self, tmp_path):
        text = HEADER.replace("\n", "\r\n") + _row().replace("\n", "\r\n")
        path = _write(tmp_path, text)
        table = read_zeek_log_columnar(path)
        assert table.to_rows() == read_zeek_log(path)[1]
        assert table.stats.vector_rows == 0  # \r forces the line path

    def test_non_ascii_cells(self, tmp_path):
        _assert_parity(tmp_path, HEADER + _row(name="münchen.example"))

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, "")
        table = read_zeek_log_columnar(path)
        assert table.rows == 0 and table.to_rows() == []

    def test_wide_and_negative_numerics(self, tmp_path):
        # Wider than the gather path handles, plus int("-5") parity.
        header = ("#path\tx\n#fields\ta\tb\n#types\tcount\tint\n")
        text = header + f"{10**30}\t-5\n" + "7\t8\n"
        rows = _assert_parity(tmp_path, text)
        assert rows[0] == {"a": 10 ** 30, "b": -5}


class TestQuarantineParity:
    def _quarantines(self, path, faults_plan=None):
        results = []
        for read in (
                lambda q, f: read_zeek_log_columnar(
                    path, quarantine=q, faults=f).to_rows(),
                lambda q, f: read_zeek_log(path, quarantine=q, faults=f,
                                           compiled=True)[1],
                lambda q, f: read_zeek_log(path, quarantine=q, faults=f,
                                           compiled=False)[1]):
            quarantine = Quarantine()
            faults = (FaultInjector(FaultPlan(**faults_plan))
                      if faults_plan else None)
            rows = read(quarantine, faults)
            results.append((rows, [(r.source, r.line, r.reason, r.raw)
                                   for r in quarantine.records]))
        return results

    def test_bad_rows_quarantine_identical_file_lines(self, tmp_path):
        text = (HEADER + _row() + "too\tfew\n"
                + _row(ts="not-a-time") + _row(uid="C4"))
        path = _write(tmp_path, text)
        columnar, compiled, legacy = self._quarantines(path)
        assert columnar == compiled == legacy
        rows, records = columnar
        assert [r["uid"] for r in rows] == ["C1", "C4"]
        assert [(line, reason) for _, line, reason, _ in records] == [
            (9, "column-count"), (10, "field-parse")]
        assert all(source == path for source, *_ in records)

    def test_corruption_fault_plan_parity(self, tmp_path):
        path = _write(tmp_path, HEADER + _row(uid=f"C{'x' * 40}") * 50)
        plan = {"seed": "columnar-chaos", "zeek_corrupt_rate": 0.3}
        columnar, compiled, legacy = self._quarantines(path, plan)
        assert columnar == compiled == legacy
        rows, records = columnar
        assert rows and records  # both outcomes occur at 30%

    def test_strict_mode_error_parity(self, tmp_path):
        path = _write(tmp_path, HEADER + _row() + "short\trow\n")
        errors = []
        for read in (lambda: read_zeek_log_columnar(path),
                     lambda: read_zeek_log(path, compiled=True),
                     lambda: read_zeek_log(path, compiled=False)):
            with pytest.raises(ZeekFormatError) as excinfo:
                read()
            errors.append((excinfo.value.source, excinfo.value.line,
                           excinfo.value.reason))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][1] == 9


class TestInternAndProjection:
    def test_interned_column_materializes_identically(self, tmp_path):
        path = _write(tmp_path, HEADER + _row() + _row(uid="C2")
                      + _row(uid="C3", name="other.example"))
        plain = read_zeek_log_columnar(path).to_rows()
        interned = read_zeek_log_columnar(
            path, intern=("server_name", "cert_chain_fps"))
        assert interned.to_rows() == plain
        column = interned.segments[0].columns["server_name"]
        assert isinstance(column.table, InternTable)
        assert len(column.ids) == 3
        assert len(column.table.values) == 2  # two distinct names
        assert interned.stats.interns["server_name"] == (3, 2)

    def test_projection_keeps_quarantine_parity(self, tmp_path):
        # ts stays failable even when projected away: the bad row must
        # quarantine exactly as if every column were materialised.
        text = HEADER + _row() + _row(ts="bogus") + _row(uid="C3")
        path = _write(tmp_path, text)
        quarantine = Quarantine()
        table = read_zeek_log_columnar(path, quarantine=quarantine,
                                       project=("uid",))
        assert table.to_rows() == [{"uid": "C1"}, {"uid": "C3"}]
        assert [(r.line, r.reason) for r in quarantine.records] == [
            (9, "field-parse")]


_READ_SHARD = """
import dataclasses, json, sys
mode, ssl_path, x509_path = sys.argv[1:]
if mode == "blocked":
    sys.modules["numpy"] = None  # any import of it now raises ImportError
from repro.parallel.worker import (_SSL_INTERN, _SSL_PROJECTION,
                                   _X509_PROJECTION)
from repro.resilience import Quarantine
from repro.zeek.columnar import read_zeek_log_columnar
report = {"numpy_before_read": sys.modules.get("numpy") is not None}
vectorise = mode != "per-line"
for name, path, options in (
        ("ssl", ssl_path, {"intern": _SSL_INTERN,
                           "project": _SSL_PROJECTION}),
        ("x509", x509_path, {"project": _X509_PROJECTION})):
    quarantine = Quarantine()
    table = read_zeek_log_columnar(path, quarantine=quarantine,
                                   vectorise=vectorise, **options)
    report[name] = {
        "rows": table.to_rows(),
        "quarantine": [dataclasses.asdict(r) for r in quarantine.records],
        "vector_rows": table.stats.vector_rows,
        "line_rows": table.stats.line_rows,
    }
report["numpy_after_read"] = sys.modules.get("numpy") is not None
print(json.dumps(report))
"""


class TestWithoutNumpy:
    """numpy loads on the first vectorised read, and an interpreter
    without it, or a read with ``vectorise=False``, reads every run per
    line, with the same columns and quarantine records as the
    vectorised read."""

    def test_blocked_numpy_reads_a_shard_per_line(self, tmp_path):
        generate_dataset(str(tmp_path), seed="no-numpy", scale="small",
                         jobs=1)
        ssl_path = tmp_path / "ssl-00.log"
        text = ssl_path.read_text()
        row = next(line for line in text.splitlines() if line[0] != "#")
        fields = row.split("\t")
        fields[5] = "https"  # id.resp_p
        # After the #close footer: a run of its own, which falls back to
        # the per-line path while the shard's rows decode vectorised.
        ssl_path.write_text(text + "too\tfew\n" + "\t".join(fields)
                            + "\n" + row + "\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        reports = {}
        for mode in ("vectorised", "blocked", "per-line"):
            out = subprocess.run(
                [sys.executable, "-c", _READ_SHARD, mode, str(ssl_path),
                 str(tmp_path / "x509.log")],
                check=True, env=env, capture_output=True, text=True,
                timeout=300).stdout
            reports[mode] = json.loads(out.strip().splitlines()[-1])
        vectorised = reports.pop("vectorised")
        # The first vectorised read loads numpy; importing does not.
        assert vectorised["numpy_before_read"] is False
        assert vectorised["numpy_after_read"] is True
        for per_line in reports.values():
            assert per_line["numpy_after_read"] is False
            for name in ("ssl", "x509"):
                assert per_line[name]["rows"] == vectorised[name]["rows"]
                assert per_line[name]["quarantine"] \
                    == vectorised[name]["quarantine"]
                assert vectorised[name]["vector_rows"] > 0
                assert per_line[name]["vector_rows"] == 0
                assert per_line[name]["line_rows"] \
                    == len(per_line[name]["rows"])
            assert [record["reason"] for record
                    in per_line["ssl"]["quarantine"]] == ["column-count",
                                                          "field-parse"]


# -- Hypothesis: generated tables of every column type ---------------------

_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz.-", min_size=1,
                 max_size=20).filter(
    lambda s: s not in ("-", "(empty)") and not s.startswith("#"))
_counts = st.integers(min_value=0, max_value=10 ** 20)
_times = st.integers(min_value=0, max_value=2 ** 54).map(
    lambda n: f"{n // 10 ** 6}.{n % 10 ** 6:06d}")
_bools = st.sampled_from(["T", "F", "-"])
_vectors = st.lists(_names, min_size=1, max_size=3).map(",".join)


@st.composite
def _tables(draw):
    rows = draw(st.lists(
        st.tuples(_times, _names, _counts, _bools, _vectors),
        min_size=1, max_size=30))
    unset = draw(st.sets(st.integers(0, 4)))
    lines = []
    for ts, name, count, flag, vec in rows:
        cells = [ts, name, str(count), flag, vec]
        for index in unset:
            cells[index] = "-"
        lines.append("\t".join(cells) + "\n")
    header = ("#path\tgen\n"
              "#fields\tts\tname\tseen\tok\ttags\n"
              "#types\ttime\tstring\tcount\tbool\tvector[string]\n")
    return header + "".join(lines)


class TestGeneratedParity:
    @settings(max_examples=40, deadline=None)
    @given(text=_tables())
    def test_generated_tables_read_identically(self, text, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("columnar-prop")
        path = _write(tmp_path, text)
        columnar, compiled, legacy = _read_all_three(path)
        assert columnar == compiled == legacy
