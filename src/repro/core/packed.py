"""Packed chain partials: the zero-pickle shard hand-off layout.

Handing a chain map back from a worker would pickle one ``ObservedChain``
object graph per distinct chain — reconstructed ``Certificate`` objects,
``DistinguishedName`` trees, sets and Counters — which the driver would
then unpickle only to merge.  This module replaces that hand-off with
three pieces:

* :func:`fold_ssl_segment` — the aggregation loop rewritten over the
  columnar reader's parallel arrays: chain keys are resolved **once per
  distinct interned ``cert_chain_fps`` cell** (not once per row), and
  client IPs, server IPs and SNIs are interned against the shard's own
  string table as they are folded, so each chain's usage is sets of
  shard-local ids; the fold reproduces ``aggregate_chains`` semantics —
  insertion order, missing-certificate tallies, empty-chain skips,
  ``None`` clients, SNI truthiness — without materialising a row
  object;
* two compact binary layouts (``bytes``), each decoded with its magic
  and section length checked.  :func:`pack_x509_section` packs one
  X509 log's de-duplicated rows once per log; :func:`pack_shard_payload`
  packs one shard's fold output — usage columns, with chain keys as
  positions in its X509 log's fingerprint list, so fingerprints travel
  once, in the X509 section, and the fold's shard-local ids written
  as they are, against the fold's string table.  Numeric columns are
  native arrays with None-bitmaps, strings are ids against a
  deduplicated string table per section.  Pickling the resulting
  ``bytes`` blob is a memcpy;
* :func:`materialize_chains` — the driver-side fold of one shard's
  decoded columns straight into the merged chain map, in shard order:
  the shard's string table is mapped to process-wide ids once, a key's
  first appearance builds its ``ObservedChain``, and every appearance
  appends its ids through :meth:`ChainUsage.add_partials`, so no
  per-shard ``ChainUsage`` ever exists and no set is rebuilt per merge
  (the caller settles each chain once, after the last shard).

The layout is a magic followed by one self-describing section of
length-prefixed blobs, native byte order (worker and driver always
share one machine)::

    chain payload := "RPK2" | section
    x509 section  := "RPX1" | section
    section       := body length | body | string count | (length, utf-8)*

Id lists are written in any order (the driver sorts once per chain);
port order — observable in merged output — is preserved exactly.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from typing import (Container, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from .chain import NULL_ID, ChainUsage, ObservedChain, intern_values

__all__ = ["ChainFold", "ShardUsage", "fold_ssl_segment", "ShardColumns",
           "X509Section",
           "pack_shard_payload", "unpack_shard_payload", "pack_x509_section",
           "unpack_x509_section", "materialize_chains", "X509_COLUMN_SPEC"]

_CHAIN_MAGIC = b"RPK2"
_X509_MAGIC = b"RPX1"

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
class ShardUsage:
    """One chain's usage within one shard, as shard-local ids.

    ``client_ids``/``server_ids``/``sni_ids`` index the fold's string
    table (``-1`` is ``None``); ``ports`` maps port to connections in
    first-seen order.
    """

    connections: int = 0
    established: int = 0
    sni_present: int = 0
    first_seen: Optional[float] = None
    last_seen: Optional[float] = None
    client_ids: set = field(default_factory=set)
    server_ids: set = field(default_factory=set)
    sni_ids: set = field(default_factory=set)
    ports: Dict[Optional[int], int] = field(default_factory=dict)


@dataclass(slots=True)
class ChainFold:
    """Accumulates one shard's chain partials across SSL segments.

    ``strings`` is the shard's string table: every client IP, server IP
    and present SNI of an aggregated row, in first-seen order, which
    the payload ships as its string table.
    """

    chains: Dict[Tuple[Optional[str], ...], ShardUsage] = field(
        default_factory=dict)
    strings: List[str] = field(default_factory=list)
    string_ids: Dict[Optional[str], int] = field(
        default_factory=lambda: {None: -1})
    joined: int = 0
    missing_certs: int = 0
    aggregated: int = 0


def fold_ssl_segment(fold: ChainFold, *, known_fps: Container,
                     ts: Sequence, client_ip: Sequence, server_ip: Sequence,
                     port: Sequence, established: Sequence,
                     sni_ids: Sequence[int], sni_values: Sequence,
                     chain_ids: Sequence[int], chain_values: Sequence) -> None:
    """Fold one columnar SSL segment into ``fold``.

    Mirrors ``iter_joined`` + ``aggregate_chains`` exactly: every row
    counts as joined, each referenced fingerprint absent from
    ``known_fps`` (any container; shard workers pass their X509 log's
    fingerprint → position map) counts as one missing certificate (per
    occurrence), empty resolved keys are skipped, and each aggregated
    row updates its chain as :meth:`ChainUsage.record` would — ``None``
    clients kept, SNIs counted only when truthy, the same timestamp
    comparisons — with values interned into ``fold.strings`` instead
    of stored.  ``sni_ids``/``chain_ids`` index into their intern
    tables' value lists; the chain key and its missing count are
    resolved once per distinct interned cell, an SNI's shard-local id
    once per distinct SNI cell.
    """
    # (resolved key, missing count) per distinct cert_chain_fps cell
    resolved: List[Optional[Tuple[tuple, int]]] = [None] * len(chain_values)
    # shard-local id per distinct server_name cell (None: not yet seen)
    sni_local: List[Optional[int]] = [None] * len(sni_values)
    chains = fold.chains
    chains_get = chains.get
    strings = fold.strings
    ids = fold.string_ids
    ids_get = ids.get
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
            usage = chains[key] = ShardUsage()
        usage.connections += 1
        if est:
            usage.established += 1
        local = ids_get(cip)
        if local is None:
            local = ids[cip] = len(strings)
            strings.append(cip)
        usage.client_ids.add(local)
        local = ids_get(sip)
        if local is None:
            local = ids[sip] = len(strings)
            strings.append(sip)
        usage.server_ids.add(local)
        ports = usage.ports
        ports[prt] = ports.get(prt, 0) + 1
        sni = sni_values[sid]
        if sni:
            usage.sni_present += 1
            local = sni_local[sid]
            if local is None:
                local = ids_get(sni)
                if local is None:
                    local = ids[sni] = len(strings)
                    strings.append(sni)
                sni_local[sid] = local
            usage.sni_ids.add(local)
        if usage.first_seen is None or ts_v < usage.first_seen:
            usage.first_seen = ts_v
        if usage.last_seen is None or ts_v > usage.last_seen:
            usage.last_seen = ts_v
        aggregated += 1
    fold.joined += joined
    fold.missing_certs += missing
    fold.aggregated += aggregated


# -- binary column codec ------------------------------------------------------

class _Writer:
    """Length-prefixed column blobs plus one deduplicated string table.

    ``strings`` seeds the table for columns whose ids were assigned
    before packing (:meth:`id_seq_column`); :meth:`string_id` assigns
    ids itself and needs an unseeded writer.
    """

    __slots__ = ("_parts", "_string_ids", "strings")

    def __init__(self, strings: Optional[List[str]] = None) -> None:
        self._parts: List[bytes] = []
        self._string_ids: Dict[str, int] = {}
        self.strings: List[str] = [] if strings is None else strings

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

    def id_seq_column(self, seqs: Sequence[Iterable[int]]) -> None:
        """Id sequences already against ``strings`` (``-1`` is None), in
        :meth:`string_seq_column`'s layout."""
        lens = array("q")
        flat = array("q")
        for seq in seqs:
            before = len(flat)
            flat.extend(seq)
            lens.append(len(flat) - before)
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
                    "corrupt packed section: length mismatch")
            self.strings = strings
        except struct.error as error:  # truncated or mangled hand-off
            raise ValueError(
                f"corrupt packed section: {error}") from error

    def blob(self) -> memoryview:
        (n,) = struct.unpack_from("<Q", self._view, self._pos)
        self._pos += 8
        data = self._view[self._pos:self._pos + n]
        self._pos += n
        return data

    def _array(self) -> array:
        values = array("q")
        values.frombytes(self.blob())
        return values

    def _ints(self) -> List[int]:
        return self._array().tolist()

    counts = _ints

    def int_column(self) -> List[Optional[int]]:
        mask = bytes(self.blob())
        return [None if m else v for m, v in zip(mask, self._ints())]

    def float_column(self) -> List[Optional[float]]:
        mask = bytes(self.blob())
        values = array("d")
        values.frombytes(self.blob())
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

    def id_seq_column(self) -> Tuple[List[int], array]:
        """Inverse of :meth:`_Writer.id_seq_column`: per-row lengths and
        the flat ids, undecoded."""
        return self._ints(), self._array()


_WRITE_KIND = {"f": _Writer.float_column, "i": _Writer.int_column,
               "b": _Writer.bool_column, "s": _Writer.string_column,
               "ss": _Writer.string_seq_column}
_READ_KIND = {"f": _Reader.float_column, "i": _Reader.int_column,
              "b": _Reader.bool_column, "s": _Reader.string_column,
              "ss": _Reader.string_seq_column}


# -- payloads -----------------------------------------------------------------

def _open(data: bytes, magic: bytes, what: str) -> "_Reader":
    """Check ``data``'s magic and return a reader over its section."""
    if data[:4] != magic:
        raise ValueError(f"not a packed {what}")
    return _Reader(memoryview(data)[4:])


@dataclass(slots=True)
class X509Section:
    """One decoded X509 section: an X509 log's de-duplicated rows.

    ``columns`` holds the last row per fingerprint, in first-seen
    fingerprint order, as name-keyed parallel columns (see
    :data:`X509_COLUMN_SPEC`).
    """

    columns: Dict[str, list]

    @property
    def fingerprints(self) -> List[Optional[str]]:
        """Distinct certificate fingerprints, first-seen row order —
        the list shard payloads' chain-key positions index into."""
        return self.columns["fingerprint"]


def pack_x509_section(columns: Dict[str, list]) -> bytes:
    """Pack one X509 log's de-duplicated rows (once per log)."""
    writer = _Writer()
    writer.counts([len(columns["fingerprint"])])
    for name, kind in X509_COLUMN_SPEC:
        _WRITE_KIND[kind](writer, columns[name])
    return _X509_MAGIC + writer.render()


def unpack_x509_section(section: bytes) -> X509Section:
    """Inverse of :func:`pack_x509_section`."""
    reader = _open(section, _X509_MAGIC, "X509 section")
    (rows,) = reader.counts()
    columns = {name: _READ_KIND[kind](reader)
               for name, kind in X509_COLUMN_SPEC}
    if any(len(column) != rows for column in columns.values()):
        raise ValueError("corrupt X509 section: ragged columns")
    return X509Section(columns=columns)


@dataclass(slots=True)
class ShardColumns:
    """One shard's decoded chain columns, in worker discovery order.

    Chain ``i``'s key is ``key_lens[i]`` consecutive entries of
    ``key_positions`` (positions in the X509 log's fingerprint list);
    its client IPs are ``client_lens[i]`` consecutive ``client_ids``
    (likewise server IPs and SNIs), process-wide ids
    (:func:`~repro.core.chain.intern_values`); its ports are
    ``port_lens[i]`` consecutive ``(ports, port_counts)`` pairs in the
    worker's first-seen order.
    """

    key_lens: List[int]
    key_positions: List[int]
    connections: List[int]
    established: List[int]
    sni_present: List[int]
    first_seen: List[Optional[float]]
    last_seen: List[Optional[float]]
    client_lens: List[int]
    client_ids: array
    server_lens: List[int]
    server_ids: array
    sni_lens: List[int]
    sni_ids: array
    port_lens: List[int]
    ports: List[Optional[int]]
    port_counts: List[int]

    def chain_keys(self, fingerprints: Sequence[Optional[str]]
                   ) -> List[Tuple[Optional[str], ...]]:
        """Every chain key, resolved against the log's fingerprints."""
        lookup = fingerprints.__getitem__
        keys = []
        pos = 0
        for n in self.key_lens:
            keys.append(tuple(map(lookup, self.key_positions[pos:pos + n])))
            pos += n
        return keys


def pack_shard_payload(fold: ChainFold, *,
                       positions: Mapping[Optional[str], int]) -> bytes:
    """Pack one shard's fold output into a compact ``bytes`` payload.

    Every chain-key fingerprint must be a key of ``positions`` (the fold
    keeps known fingerprints only): keys travel as positions in the X509
    log's fingerprint list, so fingerprints are written once, in the
    X509 section.  The fold's string table is the payload's, and its
    shard-local ids are written as they are.
    """
    keys = list(fold.chains)
    usages = list(fold.chains.values())
    writer = _Writer(fold.strings)
    writer.counts([len(key) for key in keys])
    writer.counts([positions[fp] for key in keys for fp in key])
    writer.counts([u.connections for u in usages])
    writer.counts([u.established for u in usages])
    writer.counts([u.sni_present for u in usages])
    writer.float_column([u.first_seen for u in usages])
    writer.float_column([u.last_seen for u in usages])
    writer.id_seq_column([u.client_ids for u in usages])
    writer.id_seq_column([u.server_ids for u in usages])
    writer.id_seq_column([u.sni_ids for u in usages])
    # ports: per-chain width, then flat (port, count) pairs in first-seen
    # order — merged output key order depends on it
    writer.counts([len(u.ports) for u in usages])
    writer.int_column([p for u in usages for p in u.ports])
    writer.counts([c for u in usages for c in u.ports.values()])
    return _CHAIN_MAGIC + writer.render()


def unpack_shard_payload(payload: bytes) -> ShardColumns:
    """Inverse of :func:`pack_shard_payload`: columns, no objects.

    The payload's string table is mapped to process-wide ids once
    (:func:`~repro.core.chain.intern_values`), and the id columns come
    back in those ids, as the driver's chain map holds them.
    """
    reader = _open(payload, _CHAIN_MAGIC, "shard payload")
    key_lens, key_positions = reader.counts(), reader.counts()
    connections, established = reader.counts(), reader.counts()
    sni_present = reader.counts()
    first_seen, last_seen = reader.float_column(), reader.float_column()
    id_columns = [reader.id_seq_column() for _ in range(3)]
    port_lens, ports, port_counts = (reader.counts(), reader.int_column(),
                                     reader.counts())
    if (sum(key_lens) != len(key_positions) or sum(port_lens) != len(ports)
            or any(sum(lens) != len(flat) or min(lens, default=0) < 0
                   for lens, flat in id_columns)
            or any(len(column) != len(key_lens) for column in (
                connections, established, sni_present, first_seen,
                last_seen, port_lens, *(lens for lens, _ in id_columns)))):
        raise ValueError("corrupt shard payload: ragged columns")
    strings = reader.strings
    if any(flat and (min(flat) < -1 or max(flat) >= len(strings))
           for _, flat in id_columns):
        raise ValueError("corrupt shard payload: string id out of range")
    # The payload's null id (-1) indexes the id of None, appended last.
    remap = intern_values(strings)
    remap.append(NULL_ID)
    lookup = remap.__getitem__
    (client_lens, clients), (server_lens, servers), (sni_lens, snis) = \
        id_columns
    return ShardColumns(
        key_lens=key_lens, key_positions=key_positions,
        connections=connections, established=established,
        sni_present=sni_present, first_seen=first_seen, last_seen=last_seen,
        client_lens=client_lens, client_ids=array("I", map(lookup, clients)),
        server_lens=server_lens, server_ids=array("I", map(lookup, servers)),
        sni_lens=sni_lens, sni_ids=array("I", map(lookup, snis)),
        port_lens=port_lens, ports=ports, port_counts=port_counts)


def materialize_chains(merged: Dict[tuple, ObservedChain],
                       columns: ShardColumns,
                       fingerprints: Sequence[Optional[str]],
                       certificates: Mapping[Optional[str], object]) -> None:
    """Fold one shard's decoded columns into ``merged``.

    Called once per shard, in shard order.  A key's first appearance
    builds its ``ObservedChain`` (certificates from ``certificates``,
    which holds every fingerprint of the shard's X509 log); every
    appearance then appends its ids and ports through
    :meth:`ChainUsage.add_partials` — the operations
    :meth:`ChainUsage.merge` performs — so dict insertion order, id
    sets, port order and the timestamp window match a single pass over
    the shards in order.  The id arrays stay unsorted; the caller
    settles each chain once, after the last shard
    (:meth:`ChainUsage.settle`).
    """
    usages = []
    for key in columns.chain_keys(fingerprints):
        chain = merged.get(key)
        if chain is None:
            chain = merged[key] = ObservedChain(
                tuple(map(certificates.__getitem__, key)))
        usages.append(chain.usage)
    ChainUsage.add_partials(
        usages, connections=columns.connections,
        established=columns.established, sni_present=columns.sni_present,
        first_seen=columns.first_seen, last_seen=columns.last_seen,
        client_ids=columns.client_ids, client_lens=columns.client_lens,
        server_ids=columns.server_ids, server_lens=columns.server_lens,
        sni_ids=columns.sni_ids, sni_lens=columns.sni_lens,
        ports=columns.ports,
        port_counts=columns.port_counts, port_lens=columns.port_lens)
