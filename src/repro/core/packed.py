"""Packed chain partials: the zero-pickle shard hand-off layout.

Handing a chain map back from a worker would pickle one ``ObservedChain``
object graph per distinct chain — reconstructed ``Certificate`` objects,
``DistinguishedName`` trees, sets and Counters — which the driver would
then unpickle only to merge.  This module replaces that hand-off with
three pieces:

* :func:`fold_ssl_segment` — the aggregation loop rewritten over the
  columnar reader's parallel arrays: chain keys are resolved **once per
  distinct interned ``cert_chain_fps`` cell** (not once per row) and the
  per-connection update is exactly one :meth:`ChainUsage.record` call,
  so the fold reproduces ``aggregate_chains`` semantics — insertion
  order, missing-certificate tallies, empty-chain skips — without
  materialising a row object;
* two compact binary layouts (``bytes``), each decoded with its magic
  and section length checked.  :func:`pack_x509_section` packs one
  X509 log's de-duplicated rows once per log; :func:`pack_shard_payload`
  packs one shard's fold output — usage columns, with chain keys as
  positions in its X509 log's fingerprint list, so fingerprints travel
  once, in the X509 section.  Numeric columns are native arrays with
  None-bitmaps, strings are ids against a deduplicated string table per
  section.  Pickling the resulting ``bytes`` blob is a memcpy;
* :func:`materialize_chains` — the driver-side fold of one shard's
  decoded columns straight into the merged chain map, in shard order:
  a key's first appearance builds its ``ObservedChain``, a later one
  adds into that usage with exactly the operations
  :meth:`ChainUsage.merge` performs, so no per-shard ``ChainUsage``
  ever exists.

The layout is a magic followed by one self-describing section of
length-prefixed blobs, native byte order (worker and driver always
share one machine)::

    chain payload := "RPK2" | section
    x509 section  := "RPX1" | section
    section       := body length | body | string count | (length, utf-8)*

Sets round-trip through lists (set equality is order-free); ``Counter``
key order — observable in merged output — is preserved exactly.
"""

from __future__ import annotations

import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Container, Dict, List, Mapping, Optional, Sequence, Tuple

from .chain import ChainUsage, ObservedChain

__all__ = ["ChainFold", "fold_ssl_segment", "ShardColumns", "X509Section",
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
class ChainFold:
    """Accumulates one shard's chain partials across SSL segments."""

    chains: Dict[Tuple[Optional[str], ...], ChainUsage] = field(
        default_factory=dict)
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
    occurrence), empty resolved keys are skipped, and usage updates go
    through :meth:`ChainUsage.record` so every set/Counter/window
    semantic — including ``None`` clients, SNI truthiness, and
    timestamp folds — is the row path's code itself.
    ``sni_ids``/``chain_ids`` index into their intern tables' value
    lists; the chain key and its missing count are resolved once per
    distinct interned cell.
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
    its ports are ``port_lens[i]`` consecutive ``(ports, port_counts)``
    pairs in the worker's ``Counter`` insertion order.
    """

    key_lens: List[int]
    key_positions: List[int]
    connections: List[int]
    established: List[int]
    sni_present: List[int]
    first_seen: List[Optional[float]]
    last_seen: List[Optional[float]]
    client_ips: List[Optional[tuple]]
    server_ips: List[Optional[tuple]]
    snis: List[Optional[tuple]]
    port_lens: List[int]
    ports: List[Optional[int]]
    port_counts: List[int]

    def chain_keys(self, fingerprints: Sequence[Optional[str]]
                   ) -> List[Tuple[Optional[str], ...]]:
        """Every chain key, resolved against the log's fingerprints."""
        keys = []
        pos = 0
        for n in self.key_lens:
            keys.append(tuple(fingerprints[p]
                              for p in self.key_positions[pos:pos + n]))
            pos += n
        return keys


def pack_shard_payload(*, chain_keys: Sequence[Tuple[Optional[str], ...]],
                       usages: Sequence[ChainUsage],
                       positions: Mapping[Optional[str], int]) -> bytes:
    """Pack one shard's fold output into a compact ``bytes`` payload.

    Every chain-key fingerprint must be a key of ``positions`` (the fold
    keeps known fingerprints only): keys travel as positions in the X509
    log's fingerprint list, so fingerprints are written once, in the
    X509 section.
    """
    writer = _Writer()
    writer.counts([len(key) for key in chain_keys])
    writer.counts([positions[fp] for key in chain_keys for fp in key])
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
    return _CHAIN_MAGIC + writer.render()


def unpack_shard_payload(payload: bytes) -> ShardColumns:
    """Inverse of :func:`pack_shard_payload`: columns, no objects."""
    reader = _open(payload, _CHAIN_MAGIC, "shard payload")
    columns = ShardColumns(
        key_lens=reader.counts(), key_positions=reader.counts(),
        connections=reader.counts(), established=reader.counts(),
        sni_present=reader.counts(), first_seen=reader.float_column(),
        last_seen=reader.float_column(),
        client_ips=reader.string_seq_column(),
        server_ips=reader.string_seq_column(),
        snis=reader.string_seq_column(), port_lens=reader.counts(),
        ports=reader.int_column(), port_counts=reader.counts())
    if (sum(columns.key_lens) != len(columns.key_positions)
            or sum(columns.port_lens) != len(columns.ports)
            or any(len(column) != len(columns.key_lens) for column in (
                columns.connections, columns.established,
                columns.sni_present, columns.first_seen, columns.last_seen,
                columns.client_ips, columns.server_ips, columns.snis,
                columns.port_lens))):
        raise ValueError("corrupt shard payload: ragged columns")
    return columns


def materialize_chains(merged: Dict[tuple, ObservedChain],
                       columns: ShardColumns,
                       fingerprints: Sequence[Optional[str]],
                       certificates: Mapping[Optional[str], object]) -> None:
    """Fold one shard's decoded columns into ``merged``.

    Called once per shard, in shard order.  A key's first appearance
    builds its ``ObservedChain`` (certificates from ``certificates``,
    which holds every fingerprint of the shard's X509 log) and its
    ``ChainUsage``; a later appearance adds into that usage with
    exactly the operations :meth:`ChainUsage.merge` performs — the same
    set unions, the same ``Counter`` insertion order, the same
    :meth:`ChainUsage.observe_timestamp` calls — so dict insertion
    order, set contents and every ``Counter``'s key order match a
    single pass over the shards in order.
    """
    ports, port_counts = columns.ports, columns.port_counts
    port_pos = 0
    for i, key in enumerate(columns.chain_keys(fingerprints)):
        width = columns.port_lens[i]
        chain = merged.get(key)
        if chain is None:
            counter: Counter = Counter()
            for j in range(port_pos, port_pos + width):
                counter[ports[j]] = port_counts[j]
            merged[key] = ObservedChain(
                tuple(certificates[fp] for fp in key),
                usage=ChainUsage(
                    connections=columns.connections[i],
                    established=columns.established[i],
                    client_ips=set(columns.client_ips[i] or ()),
                    ports=counter, sni_present=columns.sni_present[i],
                    snis=set(columns.snis[i] or ()),
                    first_seen=columns.first_seen[i],
                    last_seen=columns.last_seen[i],
                    server_ips=set(columns.server_ips[i] or ())))
        else:
            usage = chain.usage
            usage.connections += columns.connections[i]
            usage.established += columns.established[i]
            usage.client_ips |= set(columns.client_ips[i] or ())
            usage.server_ips |= set(columns.server_ips[i] or ())
            counter = usage.ports
            for j in range(port_pos, port_pos + width):
                counter[ports[j]] += port_counts[j]
            usage.sni_present += columns.sni_present[i]
            usage.snis |= set(columns.snis[i] or ())
            for ts in (columns.first_seen[i], columns.last_seen[i]):
                if ts is not None:
                    usage.observe_timestamp(ts)
        port_pos += width
