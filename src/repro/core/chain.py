"""Observed certificate chains and their usage aggregation.

The paper's unit of analysis is the *delivered chain*: the exact ordered
certificate list a server presented, de-duplicated across connections
(731,175 unique chains out of 259.30 M connections).  ``ObservedChain``
couples one such chain with its usage statistics — connection count,
establishment rate, client IPs, ports, SNI presence — which drive every
"% of connections successfully established" number in §4 and §5.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import filterfalse
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..obs import instruments
from ..obs.tracing import trace_span
from ..x509.certificate import Certificate
from ..zeek.tap import JoinedConnection

__all__ = ["ChainUsage", "ObservedChain", "aggregate_chains", "intern_value",
           "intern_values", "NULL_ID"]


# -- the process-wide intern table --------------------------------------------

#: Id -> value, append-only; id 0 is ``None`` (an unset Zeek field).
_VALUES: List[Optional[str]] = [None]
#: Value -> id, the inverse of ``_VALUES``.
_IDS: Dict[Optional[str], int] = {None: 0}
#: The id of ``None``.
NULL_ID = 0


def intern_value(value: Optional[str]) -> int:
    """The process-wide id of ``value``, assigning the next id on first
    sight.  Ids are stable for the life of the process and mean nothing
    in another one, which is why :class:`ChainUsage` pickles strings."""
    vid = _IDS.get(value)
    if vid is None:
        vid = _IDS[value] = len(_VALUES)
        _VALUES.append(value)
    return vid


def intern_values(values: Sequence[Optional[str]]) -> array:
    """:func:`intern_value` of each of ``values``, as an ``array('I')``."""
    ids = _IDS
    for value in filterfalse(ids.__contains__, values):
        ids[value] = len(_VALUES)
        _VALUES.append(value)
    return array("I", map(ids.__getitem__, values))


def _decode(ids: Iterable[int]) -> List[Optional[str]]:
    """The values behind process-wide ids, in the order given."""
    return list(map(_VALUES.__getitem__, ids))


#: Stands for a ``None`` port in a port array.
_NO_PORT = -(1 << 63)


def _id_array(values: Iterable[Optional[str]]) -> array:
    """Sorted unique ids of ``values``."""
    return array("I", sorted(set(intern_values(list(values)))))


def _settled(ids: array) -> array:
    """``ids`` sorted and de-duplicated."""
    if len(ids) < 2:
        return ids
    if ids.count(ids[0]) == len(ids):
        # One value seen in every shard: a chain's server IP or SNI.
        return ids[:1]
    return array("I", sorted(set(ids)))


class ChainUsage:
    """Usage accumulator for one delivered chain.

    Client IPs, server IPs and SNIs are ids into the process-wide intern
    table (:func:`intern_value`), each held as a sorted ``array('I')`` of
    unique ids; ports are parallel port and connection-count arrays in
    first-seen order (Table 4 breaks ``most_common`` ties by it).
    :meth:`record`, :meth:`merge` and :meth:`add_partials` only append;
    :meth:`settle` sorts and de-duplicates once, and every read settles
    first, so a fold pays one sort per chain rather than one per merge.

    The constructor takes decoded values (iterables of strings, a
    port -> count mapping).  Reads go through ids (:attr:`client_ids`,
    :meth:`distinct_clients`), the port :class:`~collections.Counter`
    (:meth:`port_counter`, :meth:`port_totals`) and, where a string is
    used, the decoded names (:meth:`sni_names`, :meth:`server_names`).
    A usage pickles as decoded strings, in the field layout of the
    set-based accumulator it replaced, so a checkpoint loads in any
    process.
    """

    __slots__ = ("connections", "established", "sni_present", "first_seen",
                 "last_seen", "_clients", "_servers", "_snis", "_ports",
                 "_port_counts", "_open")

    def __init__(self, connections: int = 0, established: int = 0,
                 client_ips: Iterable[Optional[str]] = (),
                 ports: Optional[Mapping[Optional[int], int]] = None,
                 sni_present: int = 0, snis: Iterable[Optional[str]] = (),
                 first_seen: Optional[float] = None,
                 last_seen: Optional[float] = None,
                 server_ips: Iterable[Optional[str]] = ()) -> None:
        self.connections = connections
        self.established = established
        self.sni_present = sni_present
        self.first_seen = first_seen
        self.last_seen = last_seen
        self._clients = _id_array(client_ips) if client_ips else array("I")
        self._servers = _id_array(server_ips) if server_ips else array("I")
        self._snis = _id_array(snis) if snis else array("I")
        self._ports = array("q")
        self._port_counts = array("q")
        self._open = False
        if ports:
            self._ports.extend(_NO_PORT if port is None else port
                               for port in ports)
            self._port_counts.extend(ports.values())

    # -- accumulation ---------------------------------------------------------

    def observe_timestamp(self, ts: float) -> None:
        """Widen the ``first_seen``/``last_seen`` window to include ``ts``.

        The min/max fold of :meth:`record` (one connection at a time);
        :meth:`add_partials` applies the same two comparisons to each
        end of another accumulator's window, which is what makes
        merge-of-partials reproduce the single-pass window exactly.
        """
        if self.first_seen is None or ts < self.first_seen:
            self.first_seen = ts
        if self.last_seen is None or ts > self.last_seen:
            self.last_seen = ts

    def record(self, *, established: bool, client_ip: Optional[str],
               server_ip: Optional[str], port: Optional[int],
               sni: Optional[str], ts: float) -> None:
        """Count one connection."""
        self.connections += 1
        if established:
            self.established += 1
        self._clients.append(intern_value(client_ip))
        self._servers.append(intern_value(server_ip))
        key = _NO_PORT if port is None else port
        ports = self._ports
        if key in ports:
            self._port_counts[ports.index(key)] += 1
        else:
            ports.append(key)
            self._port_counts.append(1)
        if sni:
            self.sni_present += 1
            self._snis.append(intern_value(sni))
        self._open = True
        self.observe_timestamp(ts)

    @staticmethod
    def add_partials(usages: Sequence["ChainUsage"], *,
                     connections: Sequence[int], established: Sequence[int],
                     sni_present: Sequence[int],
                     first_seen: Sequence[Optional[float]],
                     last_seen: Sequence[Optional[float]],
                     client_ids: Sequence[int], client_lens: Sequence[int],
                     server_ids: Sequence[int], server_lens: Sequence[int],
                     sni_ids: Sequence[int], sni_lens: Sequence[int],
                     ports: Sequence[Optional[int]],
                     port_counts: Sequence[int],
                     port_lens: Sequence[int]) -> None:
        """Add one partial into each of ``usages``, given as columns.

        Partial ``i`` has the counters and window at index ``i``, the
        next ``client_lens[i]`` of ``client_ids`` (likewise server IPs
        and SNIs; process-wide ids, any order, repeats allowed) and the
        next ``port_lens[i]`` of ``ports``/``port_counts`` in its
        first-seen order.  Ids are appended; the arrays stay unsorted
        until :meth:`settle`.  One call per shard keeps the per-partial
        cost to a few appends.
        """
        if None in ports:
            ports = [_NO_PORT if port is None else port for port in ports]
        c = s = n = p = 0
        for (usage, conns, est, present, first, last, c_len, s_len, n_len,
             p_len) in zip(usages, connections, established, sni_present,
                           first_seen, last_seen, client_lens, server_lens,
                           sni_lens, port_lens):
            usage.connections += conns
            usage.established += est
            usage.sni_present += present
            usage._clients.extend(client_ids[c:c + c_len])
            usage._servers.extend(server_ids[s:s + s_len])
            if n_len:
                usage._snis.extend(sni_ids[n:n + n_len])
            usage._open = True
            c += c_len
            s += s_len
            n += n_len
            mine = usage._ports
            if not mine:
                mine.extend(ports[p:p + p_len])
                usage._port_counts.extend(port_counts[p:p + p_len])
            else:
                totals = usage._port_counts
                for j in range(p, p + p_len):
                    port = ports[j]
                    if port in mine:
                        totals[mine.index(port)] += port_counts[j]
                    else:
                        mine.append(port)
                        totals.append(port_counts[j])
            p += p_len
            # observe_timestamp, inlined, for each end of the window
            if first is not None:
                if usage.first_seen is None or first < usage.first_seen:
                    usage.first_seen = first
                if usage.last_seen is None or first > usage.last_seen:
                    usage.last_seen = first
            if last is not None:
                if usage.first_seen is None or last < usage.first_seen:
                    usage.first_seen = last
                if usage.last_seen is None or last > usage.last_seen:
                    usage.last_seen = last

    def merge(self, other: "ChainUsage") -> None:
        """Add ``other``'s usage, as a fold adds a later shard's."""
        clients, servers, snis = (other.client_ids, other.server_ids,
                                  other.sni_ids)
        ChainUsage.add_partials(
            [self], connections=[other.connections],
            established=[other.established],
            sni_present=[other.sni_present], first_seen=[other.first_seen],
            last_seen=[other.last_seen], client_ids=clients,
            client_lens=[len(clients)], server_ids=servers,
            server_lens=[len(servers)], sni_ids=snis, sni_lens=[len(snis)],
            ports=other._ports, port_counts=other._port_counts,
            port_lens=[len(other._ports)])

    def settle(self) -> None:
        """Sort and de-duplicate the id arrays (once, after a fold)."""
        if self._open:
            self._clients = _settled(self._clients)
            self._servers = _settled(self._servers)
            self._snis = _settled(self._snis)
            self._open = False

    # -- reads ----------------------------------------------------------------

    @property
    def client_ids(self) -> array:
        """Sorted unique client-IP ids (read-only)."""
        self.settle()
        return self._clients

    @property
    def server_ids(self) -> array:
        """Sorted unique server-IP ids (read-only)."""
        self.settle()
        return self._servers

    @property
    def sni_ids(self) -> array:
        """Sorted unique SNI ids (read-only)."""
        self.settle()
        return self._snis

    def client_names(self) -> List[Optional[str]]:
        """Distinct client IPs, in id order."""
        return _decode(self.client_ids)

    def server_names(self) -> List[Optional[str]]:
        """Distinct server IPs, in id order."""
        return _decode(self.server_ids)

    def sni_names(self) -> List[Optional[str]]:
        """Distinct SNIs, in id order."""
        return _decode(self.sni_ids)

    def port_items(self) -> Iterator[Tuple[Optional[int], int]]:
        """``(port, connections)`` pairs in first-seen order."""
        for port, count in zip(self._ports, self._port_counts):
            yield (None if port == _NO_PORT else port), count

    def port_counter(self) -> Counter:
        """Connections per port, keys in first-seen order."""
        return Counter(dict(self.port_items()))

    @staticmethod
    def distinct_clients(usages: Iterable["ChainUsage"]) -> int:
        """Distinct client IPs across ``usages`` (a union of ids)."""
        seen: set = set()
        for usage in usages:
            if usage._open:
                usage.settle()
            seen.update(usage._clients)
        return len(seen)

    @staticmethod
    def port_totals(usages: Iterable["ChainUsage"]) -> Counter:
        """Connections per port across ``usages``, keys in first-seen
        order over the usages in turn (what summing their
        :meth:`port_counter` gives)."""
        totals: Counter = Counter()
        for usage in usages:
            for port, count in usage.port_items():
                totals[port] += count
        return totals

    @property
    def establishment_rate(self) -> float:
        if self.connections == 0:
            return 0.0
        return self.established / self.connections

    @property
    def sni_rate(self) -> float:
        if self.connections == 0:
            return 0.0
        return self.sni_present / self.connections

    # -- value semantics ------------------------------------------------------

    def _state(self) -> tuple:
        return (self.connections, self.established, self.sni_present,
                self.first_seen, self.last_seen, self.client_ids,
                self.server_ids, self.sni_ids, self.port_counter())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainUsage):
            return NotImplemented
        return self._state() == other._state()

    def __repr__(self) -> str:
        return (f"ChainUsage(connections={self.connections}, "
                f"established={self.established}, "
                f"clients={len(self.client_ids)}, "
                f"servers={len(self.server_ids)}, "
                f"sni_present={self.sni_present}, snis={len(self.sni_ids)}, "
                f"ports={dict(self.port_items())}, "
                f"first_seen={self.first_seen}, last_seen={self.last_seen})")

    def __getstate__(self) -> dict:
        return {"connections": self.connections,
                "established": self.established,
                "client_ips": set(self.client_names()),
                "ports": self.port_counter(),
                "sni_present": self.sni_present,
                "snis": set(self.sni_names()),
                "first_seen": self.first_seen,
                "last_seen": self.last_seen,
                "server_ips": set(self.server_names())}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)


@dataclass
class ObservedChain:
    """One distinct delivered chain plus its aggregated usage."""

    certificates: tuple[Certificate, ...]
    usage: ChainUsage = field(default_factory=ChainUsage)

    @property
    def key(self) -> tuple[str, ...]:
        return tuple(cert.fingerprint for cert in self.certificates)

    @property
    def length(self) -> int:
        return len(self.certificates)

    @property
    def leaf(self) -> Optional[Certificate]:
        return self.certificates[0] if self.certificates else None

    @property
    def is_single(self) -> bool:
        return len(self.certificates) == 1

    @property
    def is_single_self_signed(self) -> bool:
        return self.is_single and self.certificates[0].is_self_signed

    def __len__(self) -> int:
        return len(self.certificates)

    def __repr__(self) -> str:
        names = " <- ".join(c.short_name() for c in self.certificates) or "<empty>"
        return f"ObservedChain({names}, conns={self.usage.connections})"


def aggregate_chains(connections: Iterable[JoinedConnection],
                     *, skip_empty: bool = True) -> Dict[tuple[str, ...], ObservedChain]:
    """Fold joined connections into distinct chains with usage stats.

    Empty chains (TLS 1.3 sessions whose certificates the monitor could not
    see, or resumptions) are skipped by default — the paper's chain analysis
    only covers connections with visible chains.
    """
    chains: Dict[tuple[str, ...], ObservedChain] = {}
    aggregated = skipped = discovered = 0
    with trace_span("aggregate_chains"):
        for joined in connections:
            key = joined.chain_key
            if skip_empty and not key:
                skipped += 1
                continue
            chain = chains.get(key)
            if chain is None:
                chain = ObservedChain(joined.chain)
                chains[key] = chain
                discovered += 1
            ssl = joined.ssl
            chain.usage.record(
                established=ssl.established,
                client_ip=ssl.id_orig_h,
                server_ip=ssl.id_resp_h,
                port=ssl.id_resp_p,
                sni=ssl.server_name,
                ts=ssl.ts,
            )
            aggregated += 1
        for chain in chains.values():
            chain.usage.settle()
    instruments.CHAIN_CONN_AGGREGATED.inc(aggregated)
    instruments.CHAIN_CONN_SKIPPED.inc(skipped)
    instruments.CHAIN_DISTINCT.inc(discovered)
    return chains
