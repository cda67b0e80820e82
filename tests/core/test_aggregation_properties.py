"""Property-based tests for chain aggregation invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chain import ChainUsage, ObservedChain, aggregate_chains
from repro.x509 import CertificateFactory, name
from repro.zeek.records import SSLRecord
from repro.zeek.tap import JoinedConnection

_FACTORY = CertificateFactory(seed=909)
_CERTS = [_FACTORY.self_signed(name(f"agg-{i}.local")) for i in range(6)]


@st.composite
def joined_connections(draw):
    n = draw(st.integers(1, 40))
    connections = []
    for i in range(n):
        chain_idx = draw(st.lists(st.integers(0, len(_CERTS) - 1),
                                  min_size=0, max_size=3))
        chain = tuple(_CERTS[j] for j in chain_idx)
        ssl = SSLRecord(
            ts=float(draw(st.integers(0, 10_000))),
            uid=f"C{i}",
            id_orig_h=f"10.0.0.{draw(st.integers(1, 6))}",
            id_orig_p=40000 + i,
            id_resp_h=f"203.0.113.{draw(st.integers(1, 4))}",
            id_resp_p=draw(st.sampled_from([443, 8443, 8013])),
            version="TLSv12",
            server_name=draw(st.sampled_from([None, "a.example",
                                              "b.example"])),
            established=draw(st.booleans()),
            cert_chain_fps=tuple(c.fingerprint for c in chain),
        )
        connections.append(JoinedConnection(ssl, chain))
    return connections


@settings(max_examples=80, deadline=None)
@given(connections=joined_connections())
def test_connection_counts_conserved(connections):
    chains = aggregate_chains(connections)
    non_empty = [c for c in connections if c.chain]
    assert sum(chain.usage.connections for chain in chains.values()) == \
        len(non_empty)


@settings(max_examples=80, deadline=None)
@given(connections=joined_connections())
def test_established_counts_conserved(connections):
    chains = aggregate_chains(connections)
    expected = sum(1 for c in connections if c.chain and c.ssl.established)
    assert sum(chain.usage.established for chain in chains.values()) == \
        expected


@settings(max_examples=80, deadline=None)
@given(connections=joined_connections())
def test_keys_are_exact_fingerprint_tuples(connections):
    chains = aggregate_chains(connections)
    for key, chain in chains.items():
        assert key == tuple(c.fingerprint for c in chain.certificates)
        assert chain.usage.connections >= 1


@settings(max_examples=80, deadline=None)
@given(connections=joined_connections())
def test_port_totals_conserved(connections):
    chains = aggregate_chains(connections)
    expected = {}
    for connection in connections:
        if connection.chain:
            port = connection.ssl.id_resp_p
            expected[port] = expected.get(port, 0) + 1
    measured = {}
    for chain in chains.values():
        for port, count in chain.usage.port_items():
            measured[port] = measured.get(port, 0) + count
    assert measured == expected


@settings(max_examples=80, deadline=None)
@given(connections=joined_connections())
def test_first_last_seen_bounds(connections):
    chains = aggregate_chains(connections)
    for chain in chains.values():
        assert chain.usage.first_seen is not None
        assert chain.usage.first_seen <= chain.usage.last_seen


@settings(max_examples=60, deadline=None)
@given(connections=joined_connections())
def test_aggregation_order_invariant(connections):
    """Aggregating a permutation yields identical usage statistics."""
    forward = aggregate_chains(connections)
    backward = aggregate_chains(list(reversed(connections)))
    assert set(forward) == set(backward)
    for key in forward:
        a, b = forward[key].usage, backward[key].usage
        assert (a.connections, a.established, a.client_ids,
                a.port_counter(), a.first_seen, a.last_seen) == \
            (b.connections, b.established, b.client_ids,
             b.port_counter(), b.first_seen, b.last_seen)


@settings(max_examples=60, deadline=None)
@given(connections=joined_connections(),
       cuts=st.lists(st.integers(0, 40), max_size=4))
def test_merge_over_any_partition_equals_single_pass(connections, cuts):
    """Any partition of the stream, aggregated piecewise then merged in
    order, reproduces the single-pass result field-for-field — including
    dict insertion order and Counter key order, the invariant the
    parallel engine's byte-identity guarantee rests on."""
    bounds = sorted(min(cut, len(connections)) for cut in cuts)
    pieces, previous = [], 0
    for bound in bounds + [len(connections)]:
        pieces.append(connections[previous:bound])
        previous = bound
    merged = {}
    for piece in pieces:
        for key, chain in aggregate_chains(piece).items():
            if key in merged:
                merged[key].usage.merge(chain.usage)
            else:
                merged[key] = chain
    joint = aggregate_chains(connections)
    assert list(merged) == list(joint)  # key order, not just membership
    for key in joint:
        a, b = merged[key].usage, joint[key].usage
        assert (a.connections, a.established, a.client_ids, a.server_ids,
                a.sni_present, a.sni_ids, a.first_seen, a.last_seen) == \
            (b.connections, b.established, b.client_ids, b.server_ids,
             b.sni_present, b.sni_ids, b.first_seen, b.last_seen)
        assert list(a.port_items()) == list(b.port_items())


@settings(max_examples=60, deadline=None)
@given(connections=joined_connections())
def test_observe_timestamp_matches_min_max(connections):
    """record() and merge() share one first/last-seen fold."""
    usage = ChainUsage()
    for connection in connections:
        usage.observe_timestamp(connection.ssl.ts)
    timestamps = [c.ssl.ts for c in connections]
    assert usage.first_seen == min(timestamps)
    assert usage.last_seen == max(timestamps)


@settings(max_examples=60, deadline=None)
@given(connections=joined_connections(), split=st.integers(0, 40))
def test_merge_equals_joint_aggregation(connections, split):
    """Aggregating two halves and merging equals aggregating everything."""
    split = min(split, len(connections))
    first = aggregate_chains(connections[:split])
    second = aggregate_chains(connections[split:])
    for key, chain in second.items():
        if key in first:
            first[key].usage.merge(chain.usage)
        else:
            first[key] = chain
    joint = aggregate_chains(connections)
    assert set(first) == set(joint)
    for key in joint:
        assert first[key].usage.connections == joint[key].usage.connections
        assert first[key].usage.client_ids == joint[key].usage.client_ids
