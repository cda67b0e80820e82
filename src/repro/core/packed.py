"""Packed chain partials: the zero-pickle shard hand-off layout.

The compiled parallel path returns a :class:`ShardAggregate` whose chain
map pickles one ``ObservedChain`` object graph per distinct chain —
reconstructed ``Certificate`` objects, ``DistinguishedName`` trees, sets
and Counters — which the driver then unpickles only to merge.  This
module replaces that hand-off with three pieces:

* :func:`fold_ssl_segment` — the aggregation loop rewritten over the
  columnar reader's parallel arrays: chain keys are resolved **once per
  distinct interned ``cert_chain_fps`` cell** (not once per row) and the
  per-connection update is exactly one :meth:`ChainUsage.record` call,
  so the fold reproduces legacy ``aggregate_chains`` semantics —
  insertion order, missing-certificate tallies, empty-chain skips —
  without materialising a row object;
* :func:`pack_shard_payload` / :func:`unpack_shard_payload` — a compact
  binary column layout (``bytes``) in two sections: the fold's output
  (chain keys as positions in the X509 section's fingerprint order,
  usage columns), and the shard's de-duplicated X509 rows.  Numeric
  columns are native arrays with None-bitmaps, strings are ids against
  a deduplicated string table *per section*, so the X509 section
  depends on the X509 log alone: every shard that joined one broadcast
  ``x509.log`` ships byte-identical X509 sections, and the driver
  decodes each distinct section once instead of once per shard.
  Pickling the resulting ``bytes`` blob is a memcpy;
* :func:`materialize_chains` — the driver-side rebuild of the legacy
  ``chains`` dict from unpacked columns plus a certificate map, in the
  exact order the worker discovered the chains.

The layout is self-describing length-prefixed blobs, native byte order
(worker and driver always share one machine)::

    payload := "RPK1" | chain section length | x509 section length
               | chain section | x509 section
    section := body length | body | string count | (length, utf-8)*

Sets round-trip through lists (set equality is order-free); ``Counter``
key order — observable in merged output — is preserved exactly.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import ChainUsage, ObservedChain

__all__ = ["ChainFold", "fold_ssl_segment", "ShardColumns", "X509Section",
           "pack_shard_payload", "unpack_shard_payload",
           "materialize_chains", "X509_COLUMN_SPEC"]

_MAGIC = b"RPK1"
#: Magic plus the two section lengths.
_HEADER = struct.Struct("<4sQQ")

#: The shipped X509 columns: name and codec kind, in record-field order.
#: Kinds: ``f`` nullable float, ``i`` nullable int, ``s`` string id,
#: ``ss`` string-id sequence, ``b`` nullable bool.
X509_COLUMN_SPEC: Tuple[Tuple[str, str], ...] = (
    ("ts", "f"),
    ("fingerprint", "s"),
    ("certificate.version", "i"),
    ("certificate.serial", "s"),
    ("certificate.subject", "s"),
    ("certificate.issuer", "s"),
    ("certificate.not_valid_before", "f"),
    ("certificate.not_valid_after", "f"),
    ("certificate.key_alg", "s"),
    ("certificate.sig_alg", "s"),
    ("certificate.key_length", "i"),
    ("san.dns", "ss"),
    ("basic_constraints.ca", "b"),
    ("basic_constraints.path_len", "i"),
)


# -- the columnar aggregation fold --------------------------------------------

@dataclass(slots=True)
class ChainFold:
    """Accumulates one shard's chain partials across SSL segments."""

    chains: Dict[Tuple[Optional[str], ...], ChainUsage] = field(
        default_factory=dict)
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0


def fold_ssl_segment(fold: ChainFold, *, known_fps: frozenset,
                     ts: Sequence, client_ip: Sequence, server_ip: Sequence,
                     port: Sequence, established: Sequence,
                     sni_ids: Sequence[int], sni_values: Sequence,
                     chain_ids: Sequence[int], chain_values: Sequence) -> None:
    """Fold one columnar SSL segment into ``fold``.

    Mirrors ``iter_joined`` + ``aggregate_chains`` exactly: every row
    counts as joined, each referenced fingerprint absent from
    ``known_fps`` counts as one missing certificate (per occurrence),
    empty resolved keys are skipped, and usage updates go through
    :meth:`ChainUsage.record` so every set/Counter/window semantic —
    including ``None`` clients, SNI truthiness, and timestamp folds —
    is the legacy code itself.  ``sni_ids``/``chain_ids`` index into
    their intern tables' value lists; the chain key and its missing
    count are resolved once per distinct interned cell.
    """
    # (resolved key, missing count) per distinct cert_chain_fps cell
    resolved: List[Optional[Tuple[tuple, int]]] = [None] * len(chain_values)
    chains = fold.chains
    chains_get = chains.get
    joined = missing = aggregated = 0
    for ts_v, cip, sip, prt, est, sid, cid in zip(
            ts, client_ip, server_ip, port, established, sni_ids, chain_ids):
        entry = resolved[cid]
        if entry is None:
            fps = chain_values[cid] or ()
            key = tuple(fp for fp in fps if fp in known_fps)
            entry = (key, len(fps) - len(key))
            resolved[cid] = entry
        key, absent = entry
        joined += 1
        missing += absent
        if not key:
            continue
        usage = chains_get(key)
        if usage is None:
            usage = chains[key] = ChainUsage()
        usage.record(established=bool(est), client_ip=cip, server_ip=sip,
                     port=prt, sni=sni_values[sid], ts=ts_v)
        aggregated += 1
    fold.joined += joined
    fold.missing_certs += missing
    fold.aggregated += aggregated


# -- binary column codec ------------------------------------------------------

class _Writer:
    """Length-prefixed column blobs plus one deduplicated string table."""

    __slots__ = ("_parts", "_string_ids", "strings")

    def __init__(self) -> None:
        self._parts: List[bytes] = []
        self._string_ids: Dict[str, int] = {}
        self.strings: List[str] = []

    def blob(self, data: bytes) -> None:
        self._parts.append(struct.pack("<Q", len(data)))
        self._parts.append(data)

    def string_id(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        sid = self._string_ids.get(value)
        if sid is None:
            sid = len(self.strings)
            self._string_ids[value] = sid
            self.strings.append(value)
        return sid

    def counts(self, values: Sequence[int]) -> None:
        """Non-nullable int column."""
        self.blob(array("q", values).tobytes())

    def int_column(self, values: Sequence[Optional[int]]) -> None:
        self.blob(bytes(v is None for v in values))
        self.blob(array("q", [0 if v is None else v for v in values])
                  .tobytes())

    def float_column(self, values: Sequence[Optional[float]]) -> None:
        self.blob(bytes(v is None for v in values))
        self.blob(array("d", [0.0 if v is None else v for v in values])
                  .tobytes())

    def bool_column(self, values: Sequence[Optional[bool]]) -> None:
        self.blob(bytes(v is None for v in values))
        self.blob(bytes(bool(v) for v in values))

    def string_column(self, values: Sequence[Optional[str]]) -> None:
        self.blob(array("q", [self.string_id(v) for v in values]).tobytes())

    def string_seq_column(
            self, seqs: Sequence[Optional[Sequence[Optional[str]]]]) -> None:
        lens = array("q")
        flat = array("q")
        for seq in seqs:
            if seq is None:
                lens.append(-1)
            else:
                lens.append(len(seq))
                for value in seq:
                    flat.append(self.string_id(value))
        self.blob(lens.tobytes())
        self.blob(flat.tobytes())

    def render(self) -> bytes:
        """One section: the column blobs, then its string table."""
        body = b"".join(self._parts)
        table = [struct.pack("<Q", len(self.strings))]
        for value in self.strings:
            raw = value.encode("utf-8")
            table.append(struct.pack("<Q", len(raw)))
            table.append(raw)
        return b"".join([struct.pack("<Q", len(body)), body, *table])


class _Reader:
    """Reads one :class:`_Writer` section; string table parsed up front."""

    __slots__ = ("_view", "_pos", "strings")

    def __init__(self, section) -> None:
        try:
            self._view = view = memoryview(section)
            (body_len,) = struct.unpack_from("<Q", view, 0)
            self._pos = 8
            pos = 8 + body_len
            (count,) = struct.unpack_from("<Q", view, pos)
            pos += 8
            strings: List[str] = []
            for _ in range(count):
                (n,) = struct.unpack_from("<Q", view, pos)
                pos += 8
                strings.append(bytes(view[pos:pos + n]).decode("utf-8"))
                pos += n
            if pos != len(view):
                raise ValueError(
                    "corrupt shard payload: section length mismatch")
            self.strings = strings
        except struct.error as error:  # truncated or mangled hand-off
            raise ValueError(
                f"corrupt shard payload: {error}") from error

    def blob(self) -> memoryview:
        (n,) = struct.unpack_from("<Q", self._view, self._pos)
        self._pos += 8
        data = self._view[self._pos:self._pos + n]
        self._pos += n
        return data

    def _ints(self) -> List[int]:
        values = array("q")
        values.frombytes(bytes(self.blob()))
        return values.tolist()

    counts = _ints

    def int_column(self) -> List[Optional[int]]:
        mask = bytes(self.blob())
        return [None if m else v for m, v in zip(mask, self._ints())]

    def float_column(self) -> List[Optional[float]]:
        mask = bytes(self.blob())
        values = array("d")
        values.frombytes(bytes(self.blob()))
        return [None if m else v for m, v in zip(mask, values.tolist())]

    def bool_column(self) -> List[Optional[bool]]:
        mask = bytes(self.blob())
        values = bytes(self.blob())
        return [None if m else bool(v) for m, v in zip(mask, values)]

    def string_column(self) -> List[Optional[str]]:
        strings = self.strings
        return [None if i < 0 else strings[i] for i in self._ints()]

    def string_seq_column(self) -> List[Optional[Tuple[Optional[str], ...]]]:
        lens = self._ints()
        flat = self._ints()
        strings = self.strings
        out: List[Optional[Tuple[Optional[str], ...]]] = []
        pos = 0
        for n in lens:
            if n < 0:
                out.append(None)
            else:
                out.append(tuple(None if i < 0 else strings[i]
                                 for i in flat[pos:pos + n]))
                pos += n
        return out


_WRITE_KIND = {"f": _Writer.float_column, "i": _Writer.int_column,
               "b": _Writer.bool_column, "s": _Writer.string_column,
               "ss": _Writer.string_seq_column}
_READ_KIND = {"f": _Reader.float_column, "i": _Reader.int_column,
              "b": _Reader.bool_column, "s": _Reader.string_column,
              "ss": _Reader.string_seq_column}


# -- shard payloads -----------------------------------------------------------

@dataclass(slots=True, eq=False)
class X509Section:
    """One decoded X509 section: a shard's de-duplicated X509 rows.

    Compared and hashed by identity: shards decoded through one
    ``sections`` cache (see :func:`unpack_shard_payload`) share the
    instance of their common section, so callers can key per-section
    work — certificate reconstruction — on it.
    """

    #: Distinct certificate fingerprints, first-seen row order.
    cert_fingerprints: List[Optional[str]]
    #: De-duplicated X509 rows (last row per fingerprint, first-seen
    #: fingerprint order) as name-keyed parallel columns.
    columns: Dict[str, list]


@dataclass(slots=True)
class ShardColumns:
    """One shard's unpacked hand-off: chain partials + X509 section."""

    chain_keys: List[Tuple[Optional[str], ...]]
    usages: List[ChainUsage]
    x509: X509Section

    @property
    def cert_fingerprints(self) -> List[Optional[str]]:
        return self.x509.cert_fingerprints

    @property
    def x509_columns(self) -> Dict[str, list]:
        return self.x509.columns


def pack_shard_payload(*, chain_keys: Sequence[Tuple[Optional[str], ...]],
                       usages: Sequence[ChainUsage],
                       cert_fingerprints: Sequence[Optional[str]],
                       x509_columns: Dict[str, list]) -> bytes:
    """Pack one shard's fold output into a compact ``bytes`` payload.

    Every chain-key fingerprint must be one of ``cert_fingerprints`` (the
    fold keeps known fingerprints only): keys travel as positions in
    that list, so fingerprints are written once, in the X509 section.
    """
    position = {fp: i for i, fp in enumerate(cert_fingerprints)}
    writer = _Writer()
    writer.counts([len(chain_keys)])
    writer.counts([len(key) for key in chain_keys])
    writer.counts([position[fp] for key in chain_keys for fp in key])
    writer.counts([u.connections for u in usages])
    writer.counts([u.established for u in usages])
    writer.counts([u.sni_present for u in usages])
    writer.float_column([u.first_seen for u in usages])
    writer.float_column([u.last_seen for u in usages])
    writer.string_seq_column([list(u.client_ips) for u in usages])
    writer.string_seq_column([list(u.server_ips) for u in usages])
    writer.string_seq_column([list(u.snis) for u in usages])
    # ports: per-chain width, then flat (key, count) pairs in the exact
    # Counter insertion order — merged output key order depends on it
    writer.counts([len(u.ports) for u in usages])
    writer.int_column([p for u in usages for p in u.ports])
    writer.counts([c for u in usages for c in u.ports.values()])
    chains = writer.render()

    writer = _Writer()
    writer.string_column(cert_fingerprints)
    n_x509 = len(next(iter(x509_columns.values()), []))
    writer.counts([n_x509])
    for name, kind in X509_COLUMN_SPEC:
        _WRITE_KIND[kind](writer, x509_columns[name])
    x509 = writer.render()
    return b"".join([_HEADER.pack(_MAGIC, len(chains), len(x509)),
                     chains, x509])


def unpack_shard_payload(payload: bytes,
                         sections: Optional[Dict[bytes, X509Section]] = None
                         ) -> ShardColumns:
    """Inverse of :func:`pack_shard_payload`.

    ``sections`` caches decoded X509 sections by their bytes: payloads
    whose sections are identical (shards of one broadcast X509 log)
    decode it once and share the :class:`X509Section`.
    """
    if payload[:4] != _MAGIC:
        raise ValueError("not a packed shard payload")
    try:
        _, chains_len, x509_len = _HEADER.unpack_from(payload)
    except struct.error as error:
        raise ValueError(f"corrupt shard payload: {error}") from error
    start = _HEADER.size
    if len(payload) != start + chains_len + x509_len:
        raise ValueError("corrupt shard payload: section length mismatch")
    section = payload[start + chains_len:]
    x509 = sections.get(section) if sections is not None else None
    if x509 is None:
        x509 = _unpack_x509_section(section)
        if sections is not None:
            sections[section] = x509
    fingerprints = x509.cert_fingerprints

    reader = _Reader(memoryview(payload)[start:start + chains_len])
    (n_chains,) = reader.counts()
    key_lens = reader.counts()
    key_positions = reader.counts()
    connections = reader.counts()
    established = reader.counts()
    sni_present = reader.counts()
    first_seen = reader.float_column()
    last_seen = reader.float_column()
    client_ips = reader.string_seq_column()
    server_ips = reader.string_seq_column()
    snis = reader.string_seq_column()
    port_lens = reader.counts()
    flat_ports = reader.int_column()
    flat_counts = reader.counts()
    chain_keys: List[Tuple[Optional[str], ...]] = []
    pos = 0
    for n in key_lens:
        chain_keys.append(tuple(fingerprints[p]
                                for p in key_positions[pos:pos + n]))
        pos += n
    usages: List[ChainUsage] = []
    pos = 0
    for i in range(n_chains):
        ports: Counter = Counter()
        for _ in range(port_lens[i]):
            ports[flat_ports[pos]] = flat_counts[pos]
            pos += 1
        usages.append(ChainUsage(
            connections=connections[i], established=established[i],
            client_ips=set(client_ips[i] or ()), ports=ports,
            sni_present=sni_present[i], snis=set(snis[i] or ()),
            first_seen=first_seen[i], last_seen=last_seen[i],
            server_ips=set(server_ips[i] or ())))
    return ShardColumns(chain_keys=chain_keys, usages=usages, x509=x509)


def _unpack_x509_section(section: bytes) -> X509Section:
    """Decode the X509 section of a :func:`pack_shard_payload` payload."""
    reader = _Reader(section)
    cert_fingerprints = reader.string_column()
    (n_x509,) = reader.counts()
    columns = {name: _READ_KIND[kind](reader)
               for name, kind in X509_COLUMN_SPEC}
    for column in columns.values():
        if len(column) != n_x509:
            raise ValueError("corrupt shard payload: ragged X509 columns")
    return X509Section(cert_fingerprints=cert_fingerprints, columns=columns)


def materialize_chains(chain_keys: Sequence[Tuple[Optional[str], ...]],
                       usages: Sequence[ChainUsage],
                       certificates: Dict[Optional[str], object]
                       ) -> Dict[tuple, ObservedChain]:
    """Rebuild the legacy ``chains`` dict from unpacked columns.

    ``chain_keys`` arrive in worker discovery order, so the dict's
    insertion order — which drives every Counter/set merge order in the
    reduce — matches what ``aggregate_chains`` would have produced.
    Every key fingerprint is present in ``certificates`` by
    construction (the fold only keeps known fingerprints).
    """
    return {key: ObservedChain(tuple(certificates[fp] for fp in key),
                               usage=usage)
            for key, usage in zip(chain_keys, usages)}
