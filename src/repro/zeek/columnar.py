"""Columnar (struct-of-arrays) Zeek log reader — the ingest hot core.

The compiled reader in :mod:`repro.zeek.format` already resolves the
per-column type dispatch at header time, but it still materialises one
Python dict (and one value object per cell) per row.  At year-scale
corpus sizes those per-row objects dominate the ingest wall clock.  This
module reads a whole log through a third path that produces **parallel
typed columns** instead of rows:

* the file is mmapped, decoded to text once, and scanned once with
  numpy: every ``\\t``/``\\n`` separator position in one vectorised
  pass, data lines grouped into contiguous *runs* between header/blank
  lines;
* each run is structurally validated (exact separator count **and**
  placement per row — any malformed row, stray control byte, or column
  miscount fails validation) and then decoded column-at-a-time:
  numeric columns through a fixed-width byte gather and vectorised
  place-value arithmetic (timestamps are ``digits.dddddd`` fixed-point,
  whose integer-divide decode is bit-identical to Python ``float()``;
  anything that fails the strict format gate falls back to numpy
  ``astype``, which delegates to Python ``int()``/``float()`` per
  element — identical values, identical errors), string columns as
  direct text slices with unset sentinels patched from one vector scan;
* designated columns are *interned*: the column stores small integer
  ids against a per-table first-seen id table (:class:`InternTable`),
  so repeated fingerprints/SNI cells cost one dict hit instead of one
  decoded object per row.

Equivalence is the contract, not a goal: any run that fails structural
validation — and any decode error inside one — rolls the run's partial
columns back and re-parses those exact lines through the same compiled
row codec the default reader uses, reproducing byte-identical rows,
quarantine ``file:line`` records, strict-mode errors, and metric
counts.  Fault injection always takes the per-line path (corruption is
defined line-at-a-time), as does a numpy-less interpreter, a file
with ``\\r`` line endings (the text-mode readers translate those), and
a read with ``vectorise=False``, which the ingest engine asks for when
its input is too small to repay numpy's import
(:data:`repro.parallel.engine.VECTORISE_MIN_BYTES`).  numpy is imported
on the first vectorised read (:func:`load_numpy`), not with this module.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List, Optional,
                    Sequence, Tuple)

from ..obs import instruments
from ..obs.tracing import trace_span
from .format import ZeekFormatError, _codec_for, _ColumnCountError, _parse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..faults.injector import FaultInjector
    from ..resilience.quarantine import Quarantine

#: numpy, bound by :func:`load_numpy` on the first vectorised read: only
#: that path uses it, so generation, importing the program and a small
#: ingest never load it.
_np = None
_numpy_missing = False

__all__ = ["ColumnarTable", "ColumnSegment", "InternedColumn", "InternTable",
           "ColumnarStats", "load_numpy", "read_zeek_log_columnar"]

#: Numeric cells at most this wide decode through the fixed-width gather;
#: anything wider (absurd for timestamps/ports/counts) goes per-cell.
_GATHER_MAX_WIDTH = 24

def load_numpy():
    """Import numpy for the vectorised path, once; ``None`` when it is
    not installed, and every read then takes the per-line path.

    :func:`~repro.parallel.engine.ingest_shards` calls it before its
    workers fork, and only for an input of at least
    :data:`~repro.parallel.engine.VECTORISE_MIN_BYTES`; a smaller ingest
    reads per line and imports numpy in no process.
    """
    global _np, _numpy_missing
    if _np is None and not _numpy_missing:
        try:
            import numpy
        except ImportError:
            _numpy_missing = True
        else:
            _np = numpy
    return _np


_INT_TYPES = ("count", "int", "port")
_FLOAT_TYPES = ("time", "double")


def _kind_of(zeek_type: str) -> str:
    """Decode strategy for one Zeek type.

    ``int``/``float``/``bool`` vectorise; ``container`` is a vector/set
    whose items can fail to parse (so it must always be decoded, even
    when projected away, to surface ``field-parse`` quarantines exactly
    like the row readers); ``container_str`` and ``str`` cannot fail.
    """
    if zeek_type in _INT_TYPES:
        return "int"
    if zeek_type in _FLOAT_TYPES:
        return "float"
    if zeek_type == "bool":
        return "bool"
    if zeek_type.startswith(("vector[", "set[")):
        inner = zeek_type[zeek_type.index("[") + 1:-1]
        if inner in _INT_TYPES or inner in _FLOAT_TYPES or inner == "bool":
            return "container"
        return "container_str"
    return "str"


def _decode_text(text: str) -> Optional[str]:
    """One scalar string cell, matching ``_parse_scalar`` exactly."""
    if text == "-":
        return None
    if text == "(empty)":
        return ""
    if "\\x" in text:
        return text.replace("\\x09", "\t").replace("\\x0a", "\n")
    return text


def _decode_text_vector(text: str) -> Optional[list]:
    """One string-vector cell — the same algorithm the compiled codec
    uses: three C-level substring scans rule out the slow cases, and the
    overwhelmingly common fingerprint vector is a bare split."""
    if text == "-":
        return None
    if text == "(empty)":
        return []
    if "\\x" in text or "-" in text or "(empty)" in text:
        return [None if t == "-" else
                "" if t == "(empty)" else
                (t.replace("\\x09", "\t").replace("\\x0a", "\n")
                 if "\\x" in t else t)
                for t in text.split(",")]
    return text.split(",")


def _decoder_for(zeek_type: str) -> Callable[[str], object]:
    """Text cell -> parsed value; semantics of :func:`_parse`."""
    kind = _kind_of(zeek_type)
    if kind == "str":
        return _decode_text
    if kind == "container_str":
        return _decode_text_vector

    def decode(text: str) -> object:
        return _parse(text, zeek_type)
    return decode


class InternTable(dict):
    """Text cell -> small int id, with one decoded value per id.

    A plain dict subclass: ``table[cell]`` returns the cell's id,
    assigning the next id (and decoding the cell exactly once) on first
    sight, so id order **is** first-seen cell order.  ``values[id]``
    holds the decoded value.  Lookup/miss tallies feed the
    ``repro_columnar_intern_lookups_total`` metric.
    """

    __slots__ = ("values", "_decode", "lookups", "misses")

    def __init__(self, decode: Callable[[str], object]):
        super().__init__()
        self.values: List[object] = []
        self._decode = decode
        self.lookups = 0
        self.misses = 0

    def __missing__(self, cell: str) -> int:
        self.misses += 1
        index = len(self.values)
        self.values.append(self._decode(cell))
        self[cell] = index
        return index


class _DecodeMemo(dict):
    """Text cell -> decoded value, computed once per distinct cell."""

    __slots__ = ("_decode",)

    def __init__(self, decode: Callable[[str], object]):
        super().__init__()
        self._decode = decode

    def __missing__(self, cell: str) -> object:
        value = self._decode(cell)
        self[cell] = value
        return value


@dataclass(slots=True)
class InternedColumn:
    """A column stored as ids into an :class:`InternTable`."""

    table: InternTable
    ids: List[int] = field(default_factory=list)

    def materialize(self) -> List[object]:
        values = self.table.values
        return [values[i] for i in self.ids]


class _Plan:
    """Per-column decode plan: type kind, storage target, cell memo."""

    __slots__ = ("index", "name", "ztype", "kind", "store", "memo")

    def __init__(self, index: int, name: str, ztype: str, kind: str,
                 store: object):
        self.index = index
        self.name = name
        self.ztype = ztype
        self.kind = kind
        #: ``list`` (plain column), :class:`InternedColumn`, or ``None``
        #: (projected away; ``int``/``float``/``container`` kinds are
        #: still decoded for parse-error parity, the rest are skipped).
        self.store = store
        self.memo = (None if kind in ("int", "float", "bool")
                     else _DecodeMemo(_decoder_for(ztype)))

    @property
    def mark(self) -> int:
        if isinstance(self.store, InternedColumn):
            return len(self.store.ids)
        if isinstance(self.store, list):
            return len(self.store)
        return 0

    def rollback(self, mark: int) -> None:
        if isinstance(self.store, InternedColumn):
            del self.store.ids[mark:]
        elif isinstance(self.store, list):
            del self.store[mark:]


@dataclass(slots=True)
class ColumnSegment:
    """Rows decoded under one ``(#fields, #types)`` header."""

    fields: Tuple[str, ...]
    types: Tuple[str, ...]
    columns: Dict[str, object] = field(default_factory=dict)
    rows: int = 0
    plans: List[_Plan] = field(default_factory=list, repr=False)

    def iter_rows(self) -> Iterator[dict]:
        """Row dicts, identical to the row readers' output.

        Vector/set values may be *shared* between rows that carried the
        same raw cell (decode-once-per-distinct-cell); no reader client
        mutates row values, and equality is unaffected.
        """
        materialized = [
            (name, column.materialize()
             if isinstance(column, InternedColumn) else column)
            for name, column in self.columns.items()]
        for i in range(self.rows):
            yield {name: values[i] for name, values in materialized}


@dataclass(slots=True)
class ColumnarStats:
    """Decode-path tallies, picklable so shard workers can ship them."""

    vector_rows: int = 0
    line_rows: int = 0
    vector_runs: int = 0
    fallback_runs: int = 0
    #: per interned column name: (lookups, misses)
    interns: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def merge(self, other: "ColumnarStats") -> None:
        self.vector_rows += other.vector_rows
        self.line_rows += other.line_rows
        self.vector_runs += other.vector_runs
        self.fallback_runs += other.fallback_runs
        for name, (lookups, misses) in other.interns.items():
            have = self.interns.get(name, (0, 0))
            self.interns[name] = (have[0] + lookups, have[1] + misses)

    def emit(self) -> None:
        """Increment the canonical ``repro_columnar_*`` counters."""
        if self.vector_rows:
            instruments.COLUMNAR_ROWS_VECTORIZED.inc(self.vector_rows)
        if self.line_rows:
            instruments.COLUMNAR_ROWS_LINE.inc(self.line_rows)
        if self.vector_runs:
            instruments.COLUMNAR_RUNS_VECTORIZED.inc(self.vector_runs)
        if self.fallback_runs:
            instruments.COLUMNAR_RUNS_FALLBACK.inc(self.fallback_runs)
        for name, (lookups, misses) in sorted(self.interns.items()):
            if lookups - misses:
                instruments.COLUMNAR_INTERN_LOOKUPS.inc(
                    lookups - misses, table=name, result="hit")
            if misses:
                instruments.COLUMNAR_INTERN_LOOKUPS.inc(
                    misses, table=name, result="miss")


@dataclass(slots=True)
class ColumnarTable:
    """One whole log as typed column segments (usually exactly one)."""

    segments: List[ColumnSegment]
    #: Final ``#path`` header value, the row-metric label.
    path: Optional[str]
    rows: int
    stats: ColumnarStats

    def iter_rows(self) -> Iterator[dict]:
        for segment in self.segments:
            yield from segment.iter_rows()

    def to_rows(self) -> List[dict]:
        return list(self.iter_rows())


class _ColumnarBuilder:
    """Accumulates segments/columns while scanning one log."""

    def __init__(self, source: Optional[str],
                 quarantine: "Optional[Quarantine]",
                 intern: Sequence[str], project: Optional[Sequence[str]]):
        self.source = source
        self.quarantine = quarantine
        self._intern = frozenset(intern)
        self._project = None if project is None else frozenset(project)
        self.segments: List[ColumnSegment] = []
        self.fields: Tuple[str, ...] = ()
        self.types: Tuple[str, ...] = ()
        self.path: Optional[str] = None
        self.rows = 0
        self.stats = ColumnarStats()
        self._segment: Optional[ColumnSegment] = None
        self._row_of: Optional[Callable[[List[str]], dict]] = None
        #: Whole file as text when it is pure ASCII (str offsets equal
        #: byte offsets, so columns slice straight out of one string).
        self._text: Optional[str] = None
        #: True when the file contains no ``(empty)`` and no ``\\x``
        #: escape anywhere: a plain string cell is then its own value,
        #: bar the unset sentinel (detected with one vector scan).
        self._plain_fast = False
        #: True when no control byte below ``\\t`` exists in the file
        #: (set by :meth:`scan_vectorized`); enables the cheap run
        #: validation.
        self._clean_seps = False

    # -- header / error handling (mirrors ZeekLogReader) ----------------------

    def _consume_header(self, line: str) -> None:
        if line.startswith("#path\t"):
            self.path = line.split("\t", 1)[1]
        elif line.startswith("#fields\t"):
            self.fields = tuple(line.split("\t")[1:])
            self._segment = None
            self._row_of = None
        elif line.startswith("#types\t"):
            self.types = tuple(line.split("\t")[1:])
            self._segment = None
            self._row_of = None

    def _bad_row(self, *, line: int, reason: str, detail: str,
                 raw: str) -> None:
        if self.quarantine is None:
            raise ZeekFormatError(detail, source=self.source, line=line)
        self.quarantine.add(source=self.source or self.path or "<stream>",
                            line=line, reason=reason, detail=detail, raw=raw)

    def _ensure_segment(self) -> ColumnSegment:
        segment = self._segment
        if segment is None:
            segment = ColumnSegment(fields=self.fields, types=self.types)
            for j, (name, ztype) in enumerate(zip(self.fields, self.types)):
                kind = _kind_of(ztype)
                stored = self._project is None or name in self._project
                store: object = None
                if stored and name in self._intern:
                    store = InternedColumn(InternTable(_decoder_for(ztype)))
                elif stored:
                    store = []
                if store is not None:
                    segment.columns[name] = store
                segment.plans.append(_Plan(j, name, ztype, kind, store))
            self.segments.append(segment)
            self._segment = segment
        return segment

    def _ensure_codec(self) -> Callable[[List[str]], dict]:
        codec = _codec_for(self.fields, self.types)
        self._row_of = codec
        return codec

    # -- per-line parity path --------------------------------------------------

    def line_slow(self, line: str, lineno: int,
                  faults: "Optional[FaultInjector]" = None) -> None:
        """One line through the exact :meth:`ZeekLogReader._process_line`
        pipeline — headers, fault injection, compiled codec, quarantine —
        appending parsed values into the current segment's columns."""
        if not line:
            return
        if line[0] == "#":
            self._consume_header(line)
            return
        if faults is not None:
            corrupted = faults.corrupt_line(line, lineno)
            if corrupted is not None:
                line = corrupted
        if not self.fields:
            self._bad_row(line=lineno, reason="no-header",
                          detail="data row encountered before "
                                 "#fields header", raw=line)
            return
        row_of = self._row_of or self._ensure_codec()
        parts = line.split("\t")
        try:
            row = row_of(parts)
        except _ColumnCountError as exc:
            self._bad_row(line=lineno, reason="column-count",
                          detail=f"row has {exc.columns} columns, "
                                 f"expected {len(self.fields)}", raw=line)
            return
        except ValueError as exc:
            self._bad_row(line=lineno, reason="field-parse",
                          detail=f"unparseable field value: {exc}", raw=line)
            return
        segment = self._ensure_segment()
        for plan in segment.plans:
            store = plan.store
            if store is None:
                continue
            if isinstance(store, InternedColumn):
                table = store.table
                table.lookups += 1
                store.ids.append(table[parts[plan.index]])
            else:
                store.append(row[plan.name])
        segment.rows += 1
        self.rows += 1
        self.stats.line_rows += 1

    def scan_text(self, text: str,
                  faults: "Optional[FaultInjector]") -> None:
        """Whole-file per-line scan (fault plans, no numpy, ``\\r`` files).

        Replicates text-mode universal newlines (``\\r\\n``/``\\r`` →
        ``\\n``) so line content and line numbers match the row readers.
        """
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for lineno, line in enumerate(lines, 1):
            self.line_slow(line, lineno, faults)

    # -- vectorised path -------------------------------------------------------

    def scan_vectorized(self, buf) -> None:
        np = _np
        arr = np.frombuffer(buf, dtype=np.uint8)
        n = arr.size
        if n == 0:
            return
        seps = np.flatnonzero(arr < 11)  # \t (9), \n (10), or garbage (<9)
        if n < 2 ** 31:  # int32 offsets halve index-array traffic
            seps = seps.astype(np.int32)
        sep_vals = arr[seps]
        nl = seps[sep_vals == 10]
        # Control bytes below \t would masquerade as separators; when the
        # file has none (the normal case) and every newline is accounted
        # for at a line end, run validation needs no per-run byte gather.
        self._clean_seps = not bool((sep_vals < 9).any())
        terminated = nl.size > 0 and int(nl[-1]) == n - 1
        nlines = nl.size if terminated else nl.size + 1
        starts = np.empty(nlines, dtype=seps.dtype)
        starts[0] = 0
        starts[1:] = nl[:nlines - 1] + 1
        ends = np.empty(nlines, dtype=seps.dtype)
        ends[:nl.size] = nl[:nlines]
        if not terminated:
            ends[-1] = n
        boundary = np.flatnonzero((starts == ends)
                                  | (arr[np.minimum(starts, n - 1)] == 35))
        prev = 0
        for index in boundary.tolist():
            if prev < index:
                self._run(buf, arr, seps, starts, ends, prev, index,
                          nlines, terminated)
            self._line_at(buf, starts, ends, index)
            prev = index + 1
        if prev < nlines:
            self._run(buf, arr, seps, starts, ends, prev, nlines,
                      nlines, terminated)

    def _line_at(self, buf, starts, ends, i: int) -> None:
        a, b = int(starts[i]), int(ends[i])
        if self._text is not None:
            line = self._text[a:b]
        else:
            line = bytes(buf[a:b]).decode("utf-8")
        self.line_slow(line, i + 1)

    def _run_lines(self, buf, starts, ends, a: int, b: int) -> None:
        for i in range(a, b):
            self._line_at(buf, starts, ends, i)

    def _run(self, buf, arr, seps, starts, ends, a: int, b: int,
             nlines: int, terminated: bool) -> None:
        """Decode data lines ``[a, b)`` — vectorised, else per-line."""
        if not self.fields:
            # Rows before any #fields header: each one quarantines.
            self._run_lines(buf, starts, ends, a, b)
            return
        vec_end = b - 1 if (b == nlines and not terminated) else b
        if vec_end > a:
            if self._run_fast(buf, arr, seps, starts, ends, a, vec_end):
                self.stats.vector_runs += 1
            else:
                self.stats.fallback_runs += 1
                self._run_lines(buf, starts, ends, a, vec_end)
        if vec_end < b:  # final line without a trailing newline
            self._run_lines(buf, starts, ends, vec_end, b)

    def _run_fast(self, buf, arr, seps, starts, ends, a: int,
                  b: int) -> bool:
        """Vectorised decode of newline-terminated data lines ``[a, b)``.

        Returns ``False`` (with any partial column appends rolled back)
        when the run is not provably clean: separator count or placement
        off anywhere, or any cell failing its typed conversion.
        """
        np = _np
        ncols = len(self.fields)
        nrows = b - a
        lo = int(np.searchsorted(seps, starts[a], side="left"))
        hi = int(np.searchsorted(seps, ends[b - 1], side="right"))
        run_seps = seps[lo:hi]
        if run_seps.size != nrows * ncols:
            return False
        # Transposed copy: every column's separator positions contiguous,
        # which all the downstream gathers/tolists feed on.
        sepT = np.ascontiguousarray(run_seps.reshape(nrows, ncols).T)
        if self._clean_seps:
            # Every separator in the file is a real \t or \n and every
            # \n sits at a line end, so "the last separator of each row
            # is its line's newline" plus the count match already proves
            # the other ncols-1 per row are tabs.
            if not (sepT[ncols - 1] == ends[a:b]).all():
                return False
        else:
            if ncols > 1 and not (arr[sepT[:ncols - 1]] == 9).all():
                return False
            if not (arr[sepT[ncols - 1]] == 10).all():
                return False
        segment = self._ensure_segment()
        row_starts = starts[a:b]
        marks = [plan.mark for plan in segment.plans]
        try:
            for plan in segment.plans:
                j = plan.index
                cell_starts = row_starts if j == 0 else sepT[j - 1] + 1
                cell_ends = sepT[j]
                self._decode_column(buf, arr, plan, cell_starts, cell_ends,
                                    nrows)
        except (ValueError, OverflowError):
            for plan, mark in zip(segment.plans, marks):
                plan.rollback(mark)
            return False
        segment.rows += nrows
        self.rows += nrows
        self.stats.vector_rows += nrows
        return True

    # -- column decoders -------------------------------------------------------

    def _cells(self, buf, cell_starts, cell_ends) -> List[str]:
        text = self._text
        if text is not None:
            return [text[x:y] for x, y in zip(cell_starts.tolist(),
                                              cell_ends.tolist())]
        # Non-ASCII file: slice bytes, decode per cell.  A bad byte
        # raises UnicodeDecodeError (a ValueError), sending the run to
        # the per-line path, which re-raises it uncaught — matching the
        # legacy readers' text-mode crash.
        return [buf[x:y].decode("utf-8")
                for x, y in zip(cell_starts.tolist(), cell_ends.tolist())]

    def _decode_column(self, buf, arr, plan: _Plan, cell_starts, cell_ends,
                       nrows: int) -> None:
        kind = plan.kind
        store = plan.store
        if kind == "bool":
            if store is not None:  # bool conversion can never fail
                self._decode_bool(arr, store, cell_starts, cell_ends)
            return
        if kind in ("int", "float"):
            self._decode_numeric(buf, arr, plan, cell_starts, cell_ends,
                                 nrows)
            return
        if store is None and kind != "container":
            return  # infallible and not materialised: nothing to do
        if isinstance(store, InternedColumn):
            # Slice and look up in one comprehension: the id table hit
            # is the whole per-row cost for a repeated cell.
            table = store.table
            table.lookups += nrows
            getid = table.__getitem__
            text = self._text
            if text is not None:
                ids = [getid(text[x:y])
                       for x, y in zip(cell_starts.tolist(),
                                       cell_ends.tolist())]
            else:
                ids = [getid(buf[x:y].decode("utf-8"))
                       for x, y in zip(cell_starts.tolist(),
                                       cell_ends.tolist())]
            if store.ids:
                store.ids.extend(ids)
            else:  # first run: adopt the list instead of copying it
                store.ids = ids
            return
        cells = self._cells(buf, cell_starts, cell_ends)
        if kind == "str" and self._plain_fast:
            # No escapes, no "(empty)" anywhere in the file: a cell is
            # its own value except the bare unset sentinel.
            store.extend(cells)
            if bool((cell_ends - cell_starts == 1).any()):
                unset = _np.flatnonzero((cell_ends - cell_starts == 1)
                                        & (arr[cell_starts] == 45))
                base = len(store) - nrows
                for i in unset.tolist():
                    store[base + i] = None
        else:
            values = map(plan.memo.__getitem__, cells)
            if store is None:  # failable container, projected away
                for _ in values:
                    pass
            else:
                store.extend(values)

    def _decode_bool(self, arr, store: list, cell_starts, cell_ends) -> None:
        # Legacy semantics: None if cell == "-" else cell == "T".  A
        # width-1 check plus one byte gather decides both exactly.
        np = _np
        single = cell_ends - cell_starts == 1
        first = arr[cell_starts]
        out = (single & (first == 84)).tolist()
        unset = np.flatnonzero(single & (first == 45))
        for i in unset.tolist():
            out[i] = None
        store.extend(out)

    def _decode_numeric(self, buf, arr, plan: _Plan, cell_starts, cell_ends,
                        nrows: int) -> None:
        np = _np
        store = plan.store
        widths = cell_ends - cell_starts
        maxw = int(widths.max()) if nrows else 0
        if maxw == 0:
            # every cell empty — int("")/float("") parity
            raise ValueError("empty numeric cell")
        if maxw > _GATHER_MAX_WIDTH:
            self._decode_numeric_slices(buf, plan, cell_starts, cell_ends)
            return
        span = np.arange(maxw, dtype=cell_starts.dtype)
        if int(widths.min()) == maxw:
            # Constant width (the usual case for timestamps): the gather
            # needs no alignment mask at all.
            gathered = arr[cell_starts[:, None] + span]
            mask = None
        else:
            # Right-aligned gather: the place value of position ``j`` is
            # then the *same for every row*, so the digit fold is one
            # matrix-vector product against a constant power table.
            idx = cell_ends[:, None] - maxw + span
            if int(cell_ends[0]) < maxw:  # only near the file start
                idx = np.maximum(idx, 0)
            gathered = arr[idx]
            mask = span >= (maxw - widths[:, None])
        # uint8 wrap-around: bytes below '0' land above 9, so a single
        # compare classifies digits and the result doubles as the digit
        # value for the fold below.
        d = gathered - 48
        digit = d <= 9
        dotcol = maxw - 7
        unset = None  # computed only when the clean screen fails
        if plan.kind == "int":
            if mask is None:
                clean = bool(digit.all())
            else:
                clean = (bool((digit | ~mask).all())
                         and bool((widths > 0).all()))
            if not clean:
                # Per-cell re-check, allowing the unset sentinel.
                unset = (widths == 1) & (arr[cell_starts] == 45)
                if mask is None:
                    ok = digit.all(axis=1)
                else:
                    ok = (digit | ~mask).all(axis=1) & (widths > 0)
                clean = bool((ok | unset).all())
            if maxw <= 18 and clean:
                # every non-unset cell is plain digits: place-value
                # arithmetic gives int() bit for bit, fully vectorised.
                # (uint8 wrap-around on the rare masked/unset garbage
                # byte is multiplied away or patched to None.)
                if store is None:
                    return  # validate-only column, and every cell parses
                digits = d if mask is None else d * mask
                if maxw <= 15:
                    # N < 10**15 < 2**53: every product and partial sum
                    # is an exact float64, and the BLAS matvec is much
                    # faster than the int64 one.
                    p10f = 10.0 ** (maxw - 1 - span)
                    values = (digits @ p10f).astype(_np.int64).tolist()
                else:
                    # int64 powers explicitly: span may be int32 and
                    # 10**15..10**17 do not fit its arithmetic.
                    p10 = 10 ** np.arange(maxw - 1, -1, -1, dtype=np.int64)
                    values = (digits @ p10).tolist()
                self._store_numeric(store, values, unset)
                return
        else:
            # the writer renders time as "%.6f": digits, one dot, six
            # fractional digits.  Right-aligned, the dot sits in the
            # same column for every row; N/1e6 (N the digit string as an
            # integer, exact below 2**53) is then the correctly rounded
            # value — bit-identical to Python float(text).
            if 8 <= maxw <= 17:
                if mask is None:
                    clean = (bool((digit | (span == dotcol)).all())
                             and bool((gathered[:, dotcol] == 46).all()))
                else:
                    clean = (bool((digit | ~mask | (span == dotcol)).all())
                             and bool((gathered[:, dotcol] == 46).all())
                             and bool((widths >= 8).all()))
                if not clean:
                    unset = (widths == 1) & (arr[cell_starts] == 45)
                    if mask is None:
                        ok = ((digit | (span == dotcol)).all(axis=1)
                              & (gathered[:, dotcol] == 46))
                    else:
                        ok = ((digit | ~mask | (span == dotcol)).all(axis=1)
                              & (gathered[:, dotcol] == 46)
                              & (widths >= 8))
                    clean = bool((ok | unset).all())
                if clean:
                    if store is None:
                        return
                    # Fold the digit string in float64 (BLAS matvec):
                    # each term d*10^k is an exact float64 and partial
                    # sums only grow, so whenever the final fold lands
                    # below 2**53 every step was exact and N/1e6 is the
                    # correctly rounded value.  Above 2**53 the fold may
                    # have rounded — those cells take the astype path.
                    p10 = np.where(span < dotcol,
                                   10.0 ** np.maximum(maxw - 2 - span, 0),
                                   10.0 ** (maxw - 1 - span))
                    p10[dotcol] = 0.0
                    digits = d if mask is None else d * mask
                    n_num = digits @ p10
                    checked = n_num if unset is None or not bool(unset.any()) \
                        else n_num[~unset]
                    if bool((checked < 2 ** 53).all()):
                        self._store_numeric(store, (n_num / 1e6).tolist(),
                                            unset)
                        return
        # Fallback: numpy astype delegates to Python int()/float() per
        # element — identical values (including underscores and signs)
        # and identical ValueError/OverflowError on anything else.
        if mask is None:
            cells = np.ascontiguousarray(gathered).view(f"S{maxw}").ravel()
        else:
            left = arr[np.where(span < widths[:, None],
                                cell_starts[:, None] + span, 0)]
            left[~(span < widths[:, None])] = 0
            cells = left.view(f"S{maxw}").ravel()
        unset_b = cells == b"-"
        work = cells
        if bool(unset_b.any()):
            work = cells.copy()
            work[unset_b] = b"0"
        typed = work.astype(np.int64 if plan.kind == "int" else np.float64)
        if store is None:
            return  # validate-only column
        self._store_numeric(store, typed.tolist(), unset_b)

    @staticmethod
    def _store_numeric(store: list, values: list, unset) -> None:
        if unset is not None and bool(unset.any()):
            for i in _np.flatnonzero(unset).tolist():
                values[i] = None
        store.extend(values)

    def _decode_numeric_slices(self, buf, plan: _Plan, cell_starts,
                               cell_ends) -> None:
        """Unusually wide numeric cells: per-cell Python conversion."""
        convert = int if plan.kind == "int" else float
        out = []
        for cell in self._cells(buf, cell_starts, cell_ends):
            out.append(None if cell == "-" else convert(cell))
        if plan.store is not None:
            plan.store.extend(out)

    # -- completion ------------------------------------------------------------

    def finish(self) -> ColumnarTable:
        for segment in self.segments:
            for plan in segment.plans:
                if isinstance(plan.store, InternedColumn):
                    table = plan.store.table
                    lookups, misses = self.stats.interns.get(
                        plan.name, (0, 0))
                    self.stats.interns[plan.name] = (
                        lookups + table.lookups, misses + table.misses)
        segments = [s for s in self.segments if s.rows]
        table = ColumnarTable(segments=segments, path=self.path,
                              rows=self.rows, stats=self.stats)
        if self.rows:
            instruments.ZEEK_ROWS.inc(self.rows, direction="read",
                                      path=self.path or "unknown")
        self.stats.emit()
        return table


def read_zeek_log_columnar(path_on_disk: str, *,
                           quarantine: "Optional[Quarantine]" = None,
                           faults: "Optional[FaultInjector]" = None,
                           intern: Sequence[str] = (),
                           project: Optional[Sequence[str]] = None,
                           vectorise: bool = True) -> ColumnarTable:
    """Read a whole log into typed columns; see the module docstring.

    ``intern`` names columns stored as id lists against per-table
    :class:`InternTable`\\ s; ``project`` (when given) limits which
    columns are materialised — columns whose conversion can fail are
    still decoded so parse errors quarantine exactly as the row readers
    would, while infallible string/bool columns are skipped outright.
    ``vectorise=False`` reads every line through the per-line path and
    never loads numpy: the same columns and quarantine records, only
    the :class:`ColumnarStats` decode tallies differ.
    Strict/tolerant and fault-injection semantics match
    :func:`repro.zeek.format.iter_zeek_log` record for record.
    """
    builder = _ColumnarBuilder(path_on_disk, quarantine, intern, project)
    with trace_span("columnar_read"):
        size = os.path.getsize(path_on_disk)
        if size == 0:
            return builder.finish()
        with open(path_on_disk, "rb") as handle:
            buf = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            view = memoryview(buf)
            try:
                text: Optional[str] = str(view, "utf-8")
            except UnicodeDecodeError:
                # Invalid UTF-8 somewhere: scan byte-wise and crash at
                # the first bad *cell*, like the text-mode readers.
                text = None
            finally:
                view.release()
            if text is not None and len(text) == size:  # pure ASCII
                builder._text = text
                builder._plain_fast = ("\\x" not in text
                                       and "(empty)" not in text)
            if faults is not None or (text is not None and "\r" in text) \
                    or not vectorise or load_numpy() is None:
                if text is None:
                    text = bytes(buf).decode("utf-8")  # raises like legacy
                builder.scan_text(text, faults)
            else:
                builder.scan_vectorized(buf)
            return builder.finish()
        finally:
            try:
                buf.close()
            except BufferError:  # a live numpy view pins the mapping
                pass
