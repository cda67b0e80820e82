"""Zeek ASCII (TSV) log format writer and reader.

Implements the classic Zeek log layout — ``#separator``, ``#fields``,
``#types`` headers, tab-separated rows, ``-`` for unset, ``(empty)`` for
empty collections, comma-joined vectors — so the analyzer can consume
either our simulated logs or real Zeek output byte-for-byte.

Two read paths share identical semantics:

* the **compiled** path (default) generates one ``row_of(parts)``
  function per ``(#fields, #types)`` header via ``exec`` — the
  per-column type dispatch is resolved once at compile time instead of
  per cell — and consumes the stream in large chunks, parsing "clean"
  blocks (no headers, no blanks, no injected faults) with a single list
  comprehension and falling back to a line-by-line loop that preserves
  exact quarantine reasons and ``file:line`` locations;
* the **legacy** path (``compiled=False``) is the original per-line
  interpreter, kept as the executable specification the compiled path is
  tested against (``tests/zeek/test_format_codec.py``).
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, TextIO, Tuple)

from ..obs import instruments
from ..obs.tracing import trace_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..faults.injector import FaultInjector
    from ..resilience.quarantine import Quarantine

__all__ = ["ZeekFormatError", "ZeekLogWriter", "ZeekLogReader",
           "iter_zeek_log", "read_zeek_log", "write_zeek_log"]


class ZeekFormatError(ValueError):
    """A malformed Zeek log, pinpointed to its file and line.

    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    handlers keep working; the message carries ``source:line`` so an
    operator staring at a 40M-row file knows exactly where to look.
    """

    def __init__(self, message: str, *, source: Optional[str] = None,
                 line: Optional[int] = None):
        self.source = source
        self.line = line
        self.reason = message
        location = ""
        if source is not None or line is not None:
            location = f"{source or '<stream>'}:{line or '?'}: "
        super().__init__(f"{location}{message}")

_UNSET = "-"
_EMPTY = "(empty)"
_SET_SEP = ","

#: Characters of log text pulled per read() on the compiled path.  Large
#: enough that per-chunk bookkeeping amortises to nothing, small enough
#: that a shard worker's resident set stays a few MiB.
_CHUNK_CHARS = 1 << 20


def _render_scalar(value: object, zeek_type: str) -> str:
    if value is None:
        return _UNSET
    if zeek_type == "bool":
        return "T" if value else "F"
    if zeek_type == "time":
        return f"{float(value):.6f}"
    if zeek_type in ("count", "int", "port"):
        return str(int(value))
    if zeek_type == "double":
        return repr(float(value))
    text = str(value)
    if text == "":
        return _EMPTY
    # Zeek escapes embedded separators.
    return text.replace("\t", "\\x09").replace("\n", "\\x0a")


def _render(value: object, zeek_type: str) -> str:
    if zeek_type.startswith(("vector[", "set[")):
        inner = zeek_type[zeek_type.index("[") + 1 : -1]
        if value is None:
            return _UNSET
        items = list(value)  # type: ignore[arg-type]
        if not items:
            return _EMPTY
        return _SET_SEP.join(_render_scalar(item, inner) for item in items)
    return _render_scalar(value, zeek_type)


def _parse_scalar(text: str, zeek_type: str) -> object:
    if text == _UNSET:
        return None
    if zeek_type == "bool":
        return text == "T"
    if zeek_type == "time":
        return float(text)
    if zeek_type in ("count", "int", "port"):
        return int(text)
    if zeek_type == "double":
        return float(text)
    if text == _EMPTY:
        return ""
    return text.replace("\\x09", "\t").replace("\\x0a", "\n")


def _parse(text: str, zeek_type: str) -> object:
    if zeek_type.startswith(("vector[", "set[")):
        inner = zeek_type[zeek_type.index("[") + 1 : -1]
        if text == _UNSET:
            return None
        if text == _EMPTY:
            return []
        return [_parse_scalar(part, inner) for part in text.split(_SET_SEP)]
    return _parse_scalar(text, zeek_type)


# -- compiled row codecs ------------------------------------------------------


class _ColumnCountError(ValueError):
    """Raised by a compiled codec when a row's column count is wrong."""

    def __init__(self, columns: int):
        super().__init__(columns)
        self.columns = columns


def _compile_vector_parser(zeek_type: str) -> Callable[[str], object]:
    inner = zeek_type[zeek_type.index("[") + 1 : -1]
    if inner == "bool":
        def parse_vector(text: str) -> object:
            if text == _UNSET:
                return None
            if text == _EMPTY:
                return []
            return [None if t == _UNSET else t == "T"
                    for t in text.split(_SET_SEP)]
    elif inner in ("count", "int", "port"):
        def parse_vector(text: str) -> object:
            if text == _UNSET:
                return None
            if text == _EMPTY:
                return []
            return [None if t == _UNSET else int(t)
                    for t in text.split(_SET_SEP)]
    elif inner in ("time", "double"):
        def parse_vector(text: str) -> object:
            if text == _UNSET:
                return None
            if text == _EMPTY:
                return []
            return [None if t == _UNSET else float(t)
                    for t in text.split(_SET_SEP)]
    else:
        def parse_vector(text: str) -> object:
            if text == _UNSET:
                return None
            if text == _EMPTY:
                return []
            # The common case — fingerprint/name vectors with no escape
            # sequences and no unset/empty elements — is a bare split;
            # one C-level substring scan each rules the slow cases out.
            if "\\x" in text or "-" in text or "(empty)" in text:
                return [None if t == _UNSET else
                        "" if t == _EMPTY else
                        (t.replace("\\x09", "\t").replace("\\x0a", "\n")
                         if "\\x" in t else t)
                        for t in text.split(_SET_SEP)]
            return text.split(_SET_SEP)

    return parse_vector


def _compile_row_codec(fields: Tuple[str, ...],
                       types: Tuple[str, ...]) -> Callable[[List[str]], dict]:
    """Generate a ``row_of(parts)`` specialised to one log header.

    The per-column ``zeek_type`` dispatch of :func:`_parse` is resolved
    here, once, into straight-line code — one dict-literal entry per
    column, ``int``/``float``/string logic inlined via walrus bindings —
    so the hot loop never compares type strings again.  Semantics match
    :func:`_parse` exactly (asserted by the codec parity tests).
    """
    namespace: Dict[str, object] = {"_ColumnCountError": _ColumnCountError}
    entries = []
    for i, (field, zeek_type) in enumerate(zip(fields, types)):
        v = f"v{i}"
        if zeek_type in ("count", "int", "port"):
            expr = f'(None if ({v} := parts[{i}]) == "-" else int({v}))'
        elif zeek_type in ("time", "double"):
            expr = f'(None if ({v} := parts[{i}]) == "-" else float({v}))'
        elif zeek_type == "bool":
            expr = f'(None if ({v} := parts[{i}]) == "-" else {v} == "T")'
        elif zeek_type.startswith(("vector[", "set[")):
            namespace[f"p{i}"] = _compile_vector_parser(zeek_type)
            inner = zeek_type[zeek_type.index("[") + 1 : -1]
            if inner in ("bool", "count", "int", "port", "time", "double"):
                expr = f"p{i}(parts[{i}])"
            else:
                # String vectors: the overwhelmingly common case (e.g.
                # cert_chain_fps) has no escapes and no unset/empty
                # elements — a bare split, checked by three C-level
                # substring scans; anything else goes to the full parser.
                expr = (
                    f'(None if ({v} := parts[{i}]) == "-" else '
                    f'[] if {v} == "(empty)" else '
                    f'{v}.split(",") if ("\\\\x" not in {v} '
                    f'and "-" not in {v} and "(empty)" not in {v}) else '
                    f'p{i}({v}))'
                )
        else:
            expr = (
                f'(None if ({v} := parts[{i}]) == "-" else '
                f'"" if {v} == "(empty)" else '
                f'({v}.replace("\\\\x09", "\\t").replace("\\\\x0a", "\\n") '
                f'if "\\\\x" in {v} else {v}))'
            )
        entries.append(f"{field!r}: {expr}")
    body = ",\n        ".join(entries)
    source = (
        f"def row_of(parts):\n"
        f"    if len(parts) != {len(fields)}:\n"
        f"        raise _ColumnCountError(len(parts))\n"
        f"    return {{{body}}}\n"
    )
    exec(source, namespace)  # noqa: S102 - source built from header tokens
    return namespace["row_of"]  # type: ignore[return-value]


_CODEC_CACHE: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]],
                   Callable[[List[str]], dict]] = {}


def _codec_for(fields: Tuple[str, ...],
               types: Tuple[str, ...]) -> Callable[[List[str]], dict]:
    key = (fields, types)
    codec = _CODEC_CACHE.get(key)
    if codec is None:
        codec = _compile_row_codec(fields, types)
        _CODEC_CACHE[key] = codec
    return codec


def _compile_renderer(zeek_type: str) -> Callable[[object], str]:
    """One render closure per column — the write-side codec."""
    if zeek_type.startswith(("vector[", "set[")):
        inner = _compile_renderer(zeek_type[zeek_type.index("[") + 1 : -1])

        def render_vector(value: object) -> str:
            if value is None:
                return _UNSET
            items = list(value)  # type: ignore[arg-type]
            if not items:
                return _EMPTY
            return _SET_SEP.join([inner(item) for item in items])

        return render_vector
    if zeek_type == "bool":
        return lambda v: _UNSET if v is None else ("T" if v else "F")
    if zeek_type == "time":
        return lambda v: _UNSET if v is None else f"{float(v):.6f}"
    if zeek_type in ("count", "int", "port"):
        return lambda v: _UNSET if v is None else str(int(v))
    if zeek_type == "double":
        return lambda v: _UNSET if v is None else repr(float(v))

    def render_string(value: object) -> str:
        if value is None:
            return _UNSET
        text = str(value)
        if text == "":
            return _EMPTY
        return text.replace("\t", "\\x09").replace("\n", "\\x0a")

    return render_string


def _scalar_render_expr(zeek_type: str, var: str, tmp: str) -> str:
    """One scalar column (or container item) as an inline expression.

    Semantics match the legacy closures exactly; the ``__class__ is``
    fast paths only skip conversion calls that would be identity anyway
    (the simulation hands the writers exact ``float``/``int``/``str``
    instances, so the slow branch is the exception, not the rule — note
    ``bool`` is not ``int`` under ``is``, so ``True`` in a count column
    still renders through ``str(int(...))`` as ``"1"``).
    """
    if zeek_type in ("count", "int", "port"):
        return (f'("-" if {var} is None else str({var}) '
                f'if {var}.__class__ is int else str(int({var})))')
    if zeek_type == "time":
        return (f'("-" if {var} is None else format({var}, ".6f") '
                f'if {var}.__class__ is float '
                f'else format(float({var}), ".6f"))')
    if zeek_type == "double":
        return (f'("-" if {var} is None else repr({var}) '
                f'if {var}.__class__ is float else repr(float({var})))')
    if zeek_type == "bool":
        return f'("-" if {var} is None else "T" if {var} else "F")'
    # Strings: escape embedded separators only when present (two C-level
    # containment scans beat two unconditional replaces on the
    # overwhelmingly escape-free common case).
    return (f'("-" if {var} is None else '
            f'"(empty)" if ({tmp} := {var} if {var}.__class__ is str '
            f'else str({var})) == "" else '
            f'{tmp}.replace("\\t", "\\\\x09").replace("\\n", "\\\\x0a") '
            f'if "\\t" in {tmp} or "\\n" in {tmp} else {tmp})')


def _compile_row_renderer(fields: Tuple[str, ...],
                          types: Tuple[str, ...]
                          ) -> Callable[[Sequence[object]], str]:
    """Generate a ``line_of(values)`` specialised to one log header.

    The write-side mirror of :func:`_compile_row_codec`: the per-column
    type dispatch of :func:`_render` is resolved once into a single
    expression that builds the whole tab-joined data line (trailing
    newline included), so the hot loop never compares type strings or
    walks a renderer tuple again.  Semantics match the legacy per-column
    closures exactly (asserted by the renderer parity tests).
    """
    namespace: Dict[str, object] = {"_ColumnCountError": _ColumnCountError}
    exprs = []
    for i, zeek_type in enumerate(types):
        v = f"v{i}"
        if zeek_type.startswith(("vector[", "set[")):
            inner_type = zeek_type[zeek_type.index("[") + 1:-1]
            if inner_type.startswith(("vector[", "set[")):
                # Nested containers: rare enough to keep on the closure.
                namespace[f"r{i}"] = _compile_renderer(zeek_type)
                expr = f"r{i}({v})"
            else:
                inner = _scalar_render_expr(inner_type, "_it", f"_t{i}")
                expr = (f'("-" if {v} is None else '
                        f'"(empty)" if not ({v} := list({v})) else '
                        f'",".join([{inner} for _it in {v}]))')
        else:
            expr = _scalar_render_expr(zeek_type, v, f"s{i}")
        exprs.append(expr)
    body = ",\n        ".join(exprs)
    unpack = ", ".join(f"v{i}" for i in range(len(types))) + \
        ("," if len(types) == 1 else "")
    source = (
        f"def line_of(values):\n"
        f"    try:\n"
        f"        {unpack} = values\n"
        f"    except ValueError:\n"
        f"        raise _ColumnCountError(len(values)) from None\n"
        f'    return "\\t".join((\n'
        f"        {body},\n"
        f'    )) + "\\n"\n'
    )
    exec(source, namespace)  # noqa: S102 - source built from header tokens
    return namespace["line_of"]  # type: ignore[return-value]


_RENDERER_CACHE: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]],
                      Callable[[Sequence[object]], str]] = {}


def _renderer_for(fields: Tuple[str, ...],
                  types: Tuple[str, ...]) -> Callable[[Sequence[object]], str]:
    key = (fields, types)
    renderer = _RENDERER_CACHE.get(key)
    if renderer is None:
        renderer = _compile_row_renderer(fields, types)
        _RENDERER_CACHE[key] = renderer
    return renderer


#: Characters of rendered lines a writer buffers before one block
#: ``write()``; a flush never writes more than this, unless one line is
#: longer.  Log text is ASCII in practice, so that is the block's byte
#: count.  64 KiB amortises the stream call as well as a larger block
#: does, while a flush's join and encode copies stay small
#: (docs/PERFORMANCE.md, "Compiled write path").
_WRITE_BUFFER_BYTES = 64 * 1024


class ZeekLogWriter:
    """Streams rows into a Zeek ASCII log.

    ``compiled=True`` (the default) renders each row through the
    exec-generated per-header line renderer and buffers rendered lines
    into block writes of at most :data:`_WRITE_BUFFER_BYTES` characters;
    ``compiled=False`` keeps the original per-column
    closure walk with one ``write()`` per row, retained as the
    executable specification (and the benchmark baseline) the compiled
    path is tested against.  Both produce byte-identical files and
    identical row metrics.
    """

    def __init__(self, stream: TextIO, path: str,
                 fields: Sequence[str], types: Sequence[str],
                 *, open_time: Optional[datetime] = None,
                 compiled: bool = True):
        if len(fields) != len(types):
            raise ValueError("fields and types must be the same length")
        self.stream = stream
        self.path = path
        self.fields = tuple(fields)
        self.types = tuple(types)
        self.compiled = compiled
        self._closed = False
        #: Pinning the header timestamps makes output byte-reproducible.
        self._open_time = open_time
        self._rows_metric = instruments.ZEEK_ROWS.labels(
            direction="written", path=path)
        self._line_of = (_renderer_for(self.fields, self.types)
                         if compiled else None)
        self._buffer: List[str] = []
        #: Characters held in ``_buffer``.
        self._buffered = 0
        self._renderers = tuple(_compile_renderer(t) for t in self.types)
        self._write_header()

    def _stamp(self) -> str:
        moment = self._open_time or datetime.now(timezone.utc)
        return moment.strftime("%Y-%m-%d-%H-%M-%S")

    def _write_header(self) -> None:
        opened = self._stamp()
        header = (
            "#separator \\x09\n"
            f"#set_separator\t{_SET_SEP}\n"
            f"#empty_field\t{_EMPTY}\n"
            f"#unset_field\t{_UNSET}\n"
            f"#path\t{self.path}\n"
            f"#open\t{opened}\n"
            "#fields\t" + "\t".join(self.fields) + "\n"
            "#types\t" + "\t".join(self.types) + "\n"
        )
        self.stream.write(header)

    def write_row(self, values: Sequence[object]) -> None:
        if self._closed:
            raise ValueError("log already closed")
        line_of = self._line_of
        if line_of is not None:
            try:
                line = line_of(values)
            except _ColumnCountError as exc:
                raise ValueError(
                    f"row has {exc.columns} values; "
                    f"log has {len(self.fields)} fields") from None
            buffered = self._buffered + len(line)
            if buffered > _WRITE_BUFFER_BYTES:
                self._flush()
                buffered = len(line)
            self._buffer.append(line)
            self._buffered = buffered
            return
        if len(values) != len(self.fields):
            raise ValueError(
                f"row has {len(values)} values; log has {len(self.fields)} fields")
        rendered = [render(v) for render, v in zip(self._renderers, values)]
        self.stream.write("\t".join(rendered) + "\n")
        self._rows_metric.inc()

    def _flush(self) -> None:
        buffer = self._buffer
        if buffer:
            self.stream.write("".join(buffer))
            self._rows_metric.inc(len(buffer))
            buffer.clear()
            self._buffered = 0

    def close(self) -> None:
        if not self._closed:
            self._flush()
            self.stream.write(f"#close\t{self._stamp()}\n")
            self._closed = True

    def __enter__(self) -> "ZeekLogWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ZeekLogReader:
    """Parses a Zeek ASCII log into typed dict rows.

    By default any malformed row raises :class:`ZeekFormatError` (carrying
    the source path and line number).  Given a ``quarantine`` sink, bad
    rows are captured there — reason, detail, raw bytes — and iteration
    continues, which is how a year-scale ingest survives row 40M being
    truncated.  A ``faults`` injector corrupts data rows *before* parsing,
    simulating an already-damaged file deterministically.

    ``compiled=True`` (the default) uses the exec-generated per-header
    row codec and chunked block reads; ``compiled=False`` runs the
    original per-line interpreter.  Both produce identical rows, metric
    counts, quarantine records, and strict-mode errors.
    """

    def __init__(self, stream: TextIO, *, source: Optional[str] = None,
                 quarantine: "Optional[Quarantine]" = None,
                 faults: "Optional[FaultInjector]" = None,
                 compiled: bool = True):
        self.stream = stream
        self.source = source
        self.quarantine = quarantine
        self.faults = faults
        self.compiled = compiled
        self.path: Optional[str] = None
        self.fields: tuple[str, ...] = ()
        self.types: tuple[str, ...] = ()
        self._row_of: Optional[Callable[[List[str]], dict]] = None

    def _bad_row(self, *, line: int, reason: str, detail: str,
                 raw: str) -> None:
        """Quarantine a malformed row, or raise when running strict."""
        if self.quarantine is None:
            raise ZeekFormatError(detail, source=self.source, line=line)
        self.quarantine.add(source=self.source or self.path or "<stream>",
                            line=line, reason=reason, detail=detail, raw=raw)

    def __iter__(self) -> Iterator[dict]:
        if self.compiled:
            return self._iter_compiled()
        return self._iter_legacy()

    def read_all(self) -> List[dict]:
        """All rows as a list — the fastest way to drain a whole log.

        Skips the generator protocol entirely on the compiled path (one
        ``list.extend`` per parsed block instead of one frame resume per
        row), which is worth ~30% on this hot loop.
        """
        if not self.compiled:
            return list(self._iter_legacy())
        rows: List[dict] = []
        extend = rows.extend
        for block in self._iter_blocks():
            extend(block)
        return rows

    # -- compiled path --------------------------------------------------------

    def _iter_compiled(self) -> Iterator[dict]:
        for block in self._iter_blocks():
            yield from block

    def _iter_blocks(self) -> Iterator[List[dict]]:
        """Yield lists of parsed rows, one list per chunk of input.

        Reads ``_CHUNK_CHARS`` at a time, carries the trailing partial
        line into the next chunk, and hands each run of complete lines to
        :meth:`_process_block`.  The row-count metric is flushed exactly
        once, at exhaustion, under the final ``#path`` label (or
        ``unknown`` when the log never declared one).
        """
        rows = 0
        stream = self.stream
        faults = self.faults
        try:
            carry = ""
            lineno = 0
            while True:
                chunk = stream.read(_CHUNK_CHARS)
                if not chunk:
                    break
                buffer = carry + chunk
                cut = buffer.rfind("\n")
                if cut < 0:
                    carry = buffer
                    continue
                text = buffer[:cut]
                carry = buffer[cut + 1:]
                block, nlines = self._process_block(text, lineno, faults)
                lineno += nlines
                if block:
                    rows += len(block)
                    yield block
            if carry:  # final line without a trailing newline
                row = self._process_line(carry, lineno + 1)
                if row is not None:
                    rows += 1
                    yield [row]
        finally:
            if rows:
                instruments.ZEEK_ROWS.inc(rows, direction="read",
                                          path=self.path or "unknown")

    def _process_block(self, text: str, base_lineno: int,
                       faults: "Optional[FaultInjector]"
                       ) -> Tuple[List[dict], int]:
        """Parse one newline-joined run of complete lines.

        The fast path applies when the block is provably all data rows —
        no ``#`` header anywhere, no blank lines, no fault injector, and
        a codec already built.  Data fields escape embedded newlines
        (``\\x0a``), so scanning the joined text for ``\\n#`` / ``\\n\\n``
        is a sound containment check.  Anything else — or any parse error
        inside the fast path — falls back to the per-line loop, which
        reproduces exact quarantine reasons and line numbers.
        """
        lines = text.split("\n")
        row_of = self._row_of
        if (row_of is not None and faults is None and text
                and text[0] != "#" and text[0] != "\n" and text[-1] != "\n"
                and "\n#" not in text and "\n\n" not in text):
            try:
                return [row_of(line.split("\t")) for line in lines], len(lines)
            except ValueError:
                pass  # some row is malformed: redo slowly for exact locations
        out: List[dict] = []
        if faults is None:
            # Mixed block (headers, blanks, or no codec yet): batch the
            # runs of plain data lines between them instead of dropping
            # the whole block to the per-line loop.
            run_start = 0
            for idx, line in enumerate(lines):
                if line and line[0] != "#":
                    continue
                self._run_into(lines, run_start, idx, base_lineno, out)
                self._process_line(line, base_lineno + idx + 1)
                run_start = idx + 1
            self._run_into(lines, run_start, len(lines), base_lineno, out)
            return out, len(lines)
        lineno = base_lineno
        for line in lines:
            lineno += 1
            row = self._process_line(line, lineno)
            if row is not None:
                out.append(row)
        return out, len(lines)

    def _run_into(self, lines: List[str], start: int, stop: int,
                  base_lineno: int, out: List[dict]) -> None:
        """Parse ``lines[start:stop]`` (all plain data rows) into ``out``."""
        if start >= stop:
            return
        row_of = self._row_of
        if row_of is None and self.fields:
            row_of = self._ensure_codec()
        if row_of is not None:
            try:
                out.extend([row_of(line.split("\t"))
                            for line in lines[start:stop]])
                return
            except ValueError:
                pass  # fall through for exact quarantine locations
        for idx in range(start, stop):
            row = self._process_line(lines[idx], base_lineno + idx + 1)
            if row is not None:
                out.append(row)

    def _process_line(self, line: str, lineno: int) -> Optional[dict]:
        """One line through the full pipeline: headers, faults, codec."""
        if not line:
            return None
        if line[0] == "#":
            self._consume_header(line)
            return None
        faults = self.faults
        if faults is not None:
            corrupted = faults.corrupt_line(line, lineno)
            if corrupted is not None:
                line = corrupted
        row_of = self._row_of
        if row_of is None:
            if not self.fields:
                self._bad_row(line=lineno, reason="no-header",
                              detail="data row encountered before "
                                     "#fields header", raw=line)
                return None
            row_of = self._ensure_codec()
        try:
            return row_of(line.split("\t"))
        except _ColumnCountError as exc:
            self._bad_row(line=lineno, reason="column-count",
                          detail=f"row has {exc.columns} columns, "
                                 f"expected {len(self.fields)}",
                          raw=line)
        except ValueError as exc:
            self._bad_row(line=lineno, reason="field-parse",
                          detail=f"unparseable field value: {exc}", raw=line)
        return None

    def _ensure_codec(self) -> Callable[[List[str]], dict]:
        codec = _codec_for(self.fields, self.types)
        self._row_of = codec
        return codec

    # -- legacy path ----------------------------------------------------------

    def _iter_legacy(self) -> Iterator[dict]:
        rows = 0
        faults = self.faults
        try:
            for lineno, line in enumerate(self.stream, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    self._consume_header(line)
                    continue
                if faults is not None:
                    corrupted = faults.corrupt_line(line, lineno)
                    if corrupted is not None:
                        line = corrupted
                if not self.fields:
                    self._bad_row(line=lineno, reason="no-header",
                                  detail="data row encountered before "
                                         "#fields header", raw=line)
                    continue
                parts = line.split("\t")
                if len(parts) != len(self.fields):
                    self._bad_row(line=lineno, reason="column-count",
                                  detail=f"row has {len(parts)} columns, "
                                         f"expected {len(self.fields)}",
                                  raw=line)
                    continue
                try:
                    row = {
                        field: _parse(text, zeek_type)
                        for field, text, zeek_type in zip(self.fields, parts,
                                                          self.types)
                    }
                except ValueError as exc:
                    self._bad_row(line=lineno, reason="field-parse",
                                  detail=f"unparseable field value: {exc}",
                                  raw=line)
                    continue
                yield row
                rows += 1
        finally:
            if rows:
                instruments.ZEEK_ROWS.inc(rows, direction="read",
                                          path=self.path or "unknown")

    def _consume_header(self, line: str) -> None:
        if line.startswith("#path\t"):
            self.path = line.split("\t", 1)[1]
        elif line.startswith("#fields\t"):
            self.fields = tuple(line.split("\t")[1:])
            self._row_of = None
        elif line.startswith("#types\t"):
            self.types = tuple(line.split("\t")[1:])
            self._row_of = None


def write_zeek_log(path_on_disk: str, log_path: str, fields: Sequence[str],
                   types: Sequence[str], rows: Iterable[Sequence[object]],
                   *, open_time: Optional[datetime] = None,
                   compiled: bool = True) -> int:
    """Write a whole log file; returns the number of data rows written.

    ``open_time`` pins the ``#open``/``#close`` header timestamps so the
    file is byte-reproducible (round-trip tests, content-addressed caches).
    ``compiled=False`` selects the legacy per-row write path (see
    :class:`ZeekLogWriter`).
    """
    count = 0
    with trace_span("zeek_write", path=log_path):
        with open(path_on_disk, "w", encoding="utf-8") as handle:
            with ZeekLogWriter(handle, log_path, fields, types,
                               open_time=open_time,
                               compiled=compiled) as writer:
                for row in rows:
                    writer.write_row(row)
                    count += 1
    return count


def iter_zeek_log(path_on_disk: str, *,
                  quarantine: "Optional[Quarantine]" = None,
                  faults: "Optional[FaultInjector]" = None,
                  compiled: bool = True,
                  reader_ref: "Optional[List[ZeekLogReader]]" = None
                  ) -> Iterator[dict]:
    """Stream a log file's rows without materialising the full list.

    This is the shard workers' entry point: constant memory regardless
    of shard size.  ``reader_ref``, when given, receives the underlying
    :class:`ZeekLogReader` before the first row so callers can inspect
    ``.path``/``.fields`` metadata during or after iteration.
    """
    with trace_span("zeek_read"):
        with open(path_on_disk, "r", encoding="utf-8") as handle:
            reader = ZeekLogReader(handle, source=path_on_disk,
                                   quarantine=quarantine, faults=faults,
                                   compiled=compiled)
            if reader_ref is not None:
                reader_ref.append(reader)
            yield from reader


def read_zeek_log(path_on_disk: str, *,
                  quarantine: "Optional[Quarantine]" = None,
                  faults: "Optional[FaultInjector]" = None,
                  compiled: bool = True
                  ) -> tuple[ZeekLogReader, list[dict]]:
    """Read a whole log file; returns the reader (for metadata) and rows.

    With a ``quarantine`` sink, malformed rows are captured and skipped
    instead of raising; ``faults`` deterministically corrupts rows first
    (see :class:`ZeekLogReader`).
    """
    with trace_span("zeek_read"):
        with open(path_on_disk, "r", encoding="utf-8") as handle:
            reader = ZeekLogReader(handle, source=path_on_disk,
                                   quarantine=quarantine, faults=faults,
                                   compiled=compiled)
            rows = reader.read_all()
    return reader, rows
