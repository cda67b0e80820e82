"""Compiled row renderers vs the legacy writer: identical bytes.

The compiled write path (exec-generated per-header renderer + buffered
block writes) must be observationally indistinguishable from the
original per-value ``_render`` loop: same bytes for every type and edge
value, same arity errors with the same message, same row metrics —
only faster.
"""

from __future__ import annotations

import io
from datetime import datetime, timezone

import pytest

from repro.obs import instruments
from repro.obs.metrics import get_registry
from repro.zeek import format as zformat
from repro.zeek.format import ZeekLogWriter, write_zeek_log

FIELDS = ["ts", "uid", "port", "ratio", "ok", "name", "sans"]
TYPES = ["time", "string", "port", "double", "bool", "string",
         "vector[string]"]
OPEN_TIME = datetime(2021, 2, 15, tzinfo=timezone.utc)

EDGE_ROWS = [
    [1453939200.0, "C1", 443, 0.5, True, "example.com", ["a.com", "b.com"]],
    [1453939201.5, "C2", 8443, None, False, None, []],
    [1453939202.25, "C3", 443, 1.25, None, "", ["", None]],
    [1453939203.125, "C4", 443, 0.0, True, "(empty)", ["(empty)"]],
    [1453939204.0, "C5", 443, 1e-9, True, "tab\there\nline", ["x\ty", "-"]],
    [1453939205.0, "C6", 443, 123456.789, True, "-", ["a,b"]],
]


def _written(compiled: bool, rows=EDGE_ROWS) -> str:
    stream = io.StringIO()
    with ZeekLogWriter(stream, "ssl", FIELDS, TYPES, open_time=OPEN_TIME,
                       compiled=compiled) as writer:
        for row in rows:
            writer.write_row(row)
    return stream.getvalue()


class TestRendererParity:
    def test_edge_values_render_identically(self):
        assert _written(True) == _written(False)

    def test_single_row_no_buffer_boundary_artifacts(self):
        for row in EDGE_ROWS:
            assert _written(True, [row]) == _written(False, [row])

    def test_empty_log_identical(self):
        assert _written(True, []) == _written(False, [])

    def test_buffer_flush_boundary_exact(self, monkeypatch):
        """Rows crossing the flush threshold land in order, once."""
        # Each row renders to 32 characters: three rows per flush.
        monkeypatch.setattr(zformat, "_WRITE_BUFFER_BYTES", 100)
        rows = [[float(i), f"C{i}", 443, 0.5, True, "h", []]
                for i in range(10)]
        assert _written(True, rows) == _written(False, rows)

    def test_wrong_arity_same_error_message(self):
        for compiled in (False, True):
            stream = io.StringIO()
            writer = ZeekLogWriter(stream, "ssl", FIELDS, TYPES,
                                   open_time=OPEN_TIME, compiled=compiled)
            with pytest.raises(ValueError) as excinfo:
                writer.write_row([1.0, "C1"])
            assert "row has 2 values; log has 7 fields" in str(excinfo.value)

    def test_write_zeek_log_both_modes_identical(self, tmp_path):
        paths = {}
        for compiled in (False, True):
            path = tmp_path / f"out-{compiled}.log"
            write_zeek_log(str(path), "ssl", FIELDS, TYPES, EDGE_ROWS,
                           open_time=OPEN_TIME, compiled=compiled)
            paths[compiled] = path.read_text()
        assert paths[True] == paths[False]

    def test_renderer_cache_reused_per_header(self):
        zformat._RENDERER_CACHE.clear()
        _written(True)
        assert len(zformat._RENDERER_CACHE) == 1
        _written(True)
        assert len(zformat._RENDERER_CACHE) == 1


class TestWriteMetrics:
    def test_row_counter_identical_both_modes(self):
        counts = {}
        for compiled in (False, True):
            get_registry().reset()
            _written(compiled)
            counts[compiled] = instruments.ZEEK_ROWS.value(
                direction="written", path="ssl")
        assert counts[True] == counts[False] == len(EDGE_ROWS)

    def test_buffered_rows_counted_on_close(self, monkeypatch):
        """The compiled path defers the metric to flush time; nothing may
        be lost when close() drains a partial buffer."""
        # The rows render to 55, 40, 50, 47, 62 and 44 characters.
        monkeypatch.setattr(zformat, "_WRITE_BUFFER_BYTES", 200)
        get_registry().reset()
        _written(True)  # 6 rows: one flush of 4 + a partial at close
        assert instruments.ZEEK_ROWS.value(
            direction="written", path="ssl") == len(EDGE_ROWS)


class _RecordingStream(io.StringIO):
    """A text stream that remembers the length of every ``write``."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def _generation_rows(count):
    """Rows about as wide as a generated ``ssl.log`` row (~330 chars)."""
    fingerprints = [f"{i:064x}" for i in range(4)]
    return [[1599000000.0 + i, f"C{i:017d}", 443, 0.5, bool(i % 2),
             f"host-{i}.example.edu", fingerprints] for i in range(count)]


class TestBoundedBuffer:
    def test_buffered_text_never_exceeds_the_bound(self):
        """Between flushes the writer holds at most the byte bound, and
        every block it writes is at most that long."""
        bound = zformat._WRITE_BUFFER_BYTES
        rows = _generation_rows(2_000)
        stream = _RecordingStream()
        with ZeekLogWriter(stream, "ssl", FIELDS, TYPES,
                           open_time=OPEN_TIME) as writer:
            header_writes = len(stream.writes)
            for row in rows:
                writer.write_row(row)
                assert sum(map(len, writer._buffer)) <= bound
        blocks = stream.writes[header_writes:-1]  # data, then ``#close``
        assert len(blocks) > 1
        assert max(blocks) <= bound
        assert stream.getvalue() == _written(False, rows)

    def test_a_line_longer_than_the_bound_is_written_alone(
            self, monkeypatch):
        monkeypatch.setattr(zformat, "_WRITE_BUFFER_BYTES", 100)
        rows = [[1.0, "C1", 443, 0.5, True, "h", []],
                [2.0, "C2", 443, 0.5, True, "x" * 150, []],
                [3.0, "C3", 443, 0.5, True, "h", []]]
        stream = _RecordingStream()
        with ZeekLogWriter(stream, "ssl", FIELDS, TYPES,
                           open_time=OPEN_TIME) as writer:
            header_writes = len(stream.writes)
            for row in rows:
                writer.write_row(row)
        assert stream.writes[header_writes:-1] == [32, 181, 32]
        assert stream.getvalue() == _written(False, rows)
