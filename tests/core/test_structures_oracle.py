"""Figures 5/7/8's graph type against networkx, the library it replaced.

The figures print counts and a role ``Counter`` read off these graphs in
node order, so for any chain set the adjacency-map graph must agree with
networkx on node order, edge order, degrees, every summary field, the
complex intermediates and the complex subgraph's node order, on both
sides of networkx's half-graph rule for induced subgraphs.  networkx is
a development dependency only; without it these tests skip.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import structures
from repro.core.chain import ObservedChain
from repro.core.classification import CertificateClassifier
from repro.core.structures import (
    GraphSummary,
    PKIGraph,
    build_cooccurrence_graph,
    build_issuance_graph,
    complex_intermediates,
    complex_subgraph,
    summarize_graph,
)
from repro.x509 import CertificateFactory, name

nx = pytest.importorskip("networkx")

HUBS = 3
SUBS_PER_HUB = 5


# -- the networkx reference: the builders as they were -------------------------


def nx_cooccurrence_graph(chains, classifier):
    graph = nx.Graph()
    roles = structures._roles_for_chains(chains)
    for chain in chains:
        for certificate in chain.certificates:
            if certificate.fingerprint not in graph:
                graph.add_node(
                    certificate.fingerprint,
                    label=certificate.short_name(),
                    issuer_class=classifier.classify(certificate).value,
                    role=roles[certificate.fingerprint])
        fps = [c.fingerprint for c in chain.certificates]
        for i, a in enumerate(fps):
            for b in fps[i + 1:]:
                if a != b:
                    graph.add_edge(a, b)
    return graph


def nx_issuance_graph(chains):
    graph = nx.DiGraph()
    roles = structures._roles_for_chains(chains)
    for chain in chains:
        certs = chain.certificates
        for certificate in certs:
            if certificate.fingerprint not in graph:
                graph.add_node(certificate.fingerprint,
                               label=certificate.short_name(),
                               role=roles[certificate.fingerprint])
        for child, parent in zip(certs, certs[1:]):
            if parent.issued(child):
                graph.add_edge(parent.fingerprint, child.fingerprint)
    return graph


def nx_complex_intermediates(graph, min_links=3):
    result = []
    for node, data in graph.nodes(data=True):
        if data.get("role") != "intermediate":
            continue
        neighbors = set(graph.predecessors(node)) | set(graph.successors(node))
        if len({n for n in neighbors
                if graph.nodes[n].get("role") == "intermediate"}) >= min_links:
            result.append(node)
    return result


def nx_complex_subgraph(graph, min_links=3):
    cores = nx_complex_intermediates(graph, min_links)
    keep = set(cores)
    for node in cores:
        keep |= set(graph.predecessors(node))
        keep |= set(graph.successors(node))
    return graph.subgraph(keep).copy()


def nx_summary(graph, min_links=3):
    roles = Counter(d.get("role", "unknown") for _, d in graph.nodes(data=True))
    classes = Counter(d.get("issuer_class", "unknown")
                      for _, d in graph.nodes(data=True))
    undirected = graph.to_undirected() if graph.is_directed() else graph
    return GraphSummary(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        nodes_by_role=tuple(sorted(roles.items())),
        nodes_by_class=tuple(sorted(classes.items())),
        components=(nx.number_connected_components(undirected)
                    if len(graph) else 0),
        max_degree=max((d for _, d in undirected.degree()), default=0),
        complex_intermediates=(len(nx_complex_intermediates(graph, min_links))
                               if graph.is_directed() else 0))


# -- chain sets ----------------------------------------------------------------


@pytest.fixture(scope="module")
def pool(pki):
    """Certificates to draw chains from: a private root with hub
    intermediates that each issue several sub-intermediates (the mesh
    shape of Appendix I), a cross-signed hub, a public Let's Encrypt
    path, and junk (bare self-signed, name-mismatched and mutually
    issuing certificates)."""
    factory = CertificateFactory(seed=2718)
    root = factory.root(name("Oracle Root", o="Oracle"))
    other_root = factory.root(name("Oracle Other Root", o="Oracle"))
    meshes = []
    for h in range(HUBS):
        hub = factory.intermediate(root, name(f"Oracle Hub {h}", o="Oracle"),
                                   path_len=None)
        paths = []
        for s in range(SUBS_PER_HUB):
            sub = factory.intermediate(hub, name(f"Oracle Sub {h}.{s}",
                                                 o="Oracle"))
            leaf = factory.leaf(sub, name(f"svc{h}-{s}.oracle.example"))
            paths.append((leaf, sub.certificate, hub.certificate,
                          root.certificate))
        meshes.append(paths)
    cross = factory.cross_sign(other_root, factory.intermediate(
        root, name("Oracle Hub 0", o="Oracle"), path_len=None))
    first = meshes[0][0]
    extra = [(first[0], first[1], cross.certificate, other_root.certificate)]
    le = pki.ca("lets_encrypt")
    r3 = le.intermediates["R3"]
    extra.append((factory.leaf(r3, name("pub.oracle.example")),
                  r3.certificate, le.root.certificate))
    junk = [factory.self_signed(name(f"junk{i}.local")) for i in range(3)]
    junk += [factory.mismatched_pair_cert(name(f"Above {i}"),
                                          name(f"Below {i}"))
             for i in range(2)]
    # Each names the other as issuer: reciprocal edges in either order.
    loop = [factory.mismatched_pair_cert(name("Loop A"), name("Loop B")),
            factory.mismatched_pair_cert(name("Loop B"), name("Loop A"))]
    paths = [path for mesh in meshes for path in mesh] + extra
    certificates = list({c.fingerprint: c for path in paths for c in path}
                        .values()) + junk + loop
    # Repeated self-signed certificates issue themselves: self-loops.
    knots = loop + [root.certificate, junk[0]]
    return {"meshes": meshes, "paths": paths, "certificates": certificates,
            "knots": knots}


@st.composite
def chain_sets(draw, pool):
    """Slices of issuance paths (optionally with a stray certificate),
    shuffled certificate lists, knots (reciprocal edges and self-loops)
    and whole hub meshes, in any order."""
    chains = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(("path", "shuffle", "knot", "mesh")))
        if kind == "path":
            path = draw(st.sampled_from(pool["paths"]))
            start = draw(st.integers(0, len(path) - 1))
            certs = list(path[start:draw(st.integers(start + 1, len(path)))])
            if draw(st.booleans()):
                certs.append(draw(st.sampled_from(pool["certificates"])))
            chains.append(certs)
        elif kind in ("shuffle", "knot"):
            chains.append(draw(st.lists(
                st.sampled_from(pool["certificates" if kind == "shuffle"
                                     else "knots"]),
                min_size=1, max_size=6)))
        else:
            mesh = draw(st.sampled_from(pool["meshes"]))
            subs = draw(st.lists(st.integers(0, SUBS_PER_HUB - 1), min_size=3,
                                 max_size=SUBS_PER_HUB, unique=True))
            skip_leaf = draw(st.booleans())
            chains.extend(list(mesh[s][skip_leaf:]) for s in subs)
    return [ObservedChain(tuple(certs)) for certs in chains]


def edge_list(graph):
    """Each edge once, in networkx's edge-view order: by source node,
    then by when the edge was added; an undirected edge from the end
    seen first."""
    done = set()
    edges = []
    for u in graph:
        edges.extend((u, v) for v in graph.successors(u) if v not in done)
        if not graph.directed:
            done.add(u)
    return edges


def assert_same_graph(ours, theirs):
    assert list(ours) == list(theirs)
    assert len(ours) == len(theirs) == ours.number_of_nodes()
    assert edge_list(ours) == list(theirs.edges())
    assert ours.number_of_edges() == theirs.number_of_edges()
    assert [ours.nodes[n] for n in ours] == [theirs.nodes[n] for n in theirs]
    assert list(ours.nodes(data=True)) == list(theirs.nodes(data=True))
    assert [ours.degree[n] for n in ours] == [theirs.degree[n] for n in theirs]
    for u, v in theirs.edges():
        assert ours.has_edge(u, v)
    if theirs.is_directed():
        for node in theirs:
            assert ours.out_degree(node) == theirs.out_degree(node)
            assert list(ours.successors(node)) == list(
                theirs.successors(node))
            assert list(ours.predecessors(node)) == list(
                theirs.predecessors(node))


SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(data=st.data())
def test_issuance_graph_matches_networkx(pool, data):
    chains = data.draw(chain_sets(pool))
    ours, theirs = build_issuance_graph(chains), nx_issuance_graph(chains)
    assert_same_graph(ours, theirs)
    assert summarize_graph(ours) == nx_summary(theirs)
    assert complex_intermediates(ours) == nx_complex_intermediates(theirs)
    sub, nx_sub = complex_subgraph(ours), nx_complex_subgraph(theirs)
    assert_same_graph(sub, nx_sub)


@SETTINGS
@given(data=st.data())
def test_cooccurrence_graph_matches_networkx(pool, registry, data):
    chains = data.draw(chain_sets(pool))
    classifier = CertificateClassifier(registry)
    ours = build_cooccurrence_graph(chains, classifier)
    theirs = nx_cooccurrence_graph(chains, classifier)
    assert_same_graph(ours, theirs)
    assert summarize_graph(ours) == nx_summary(theirs)


NAMES = st.sampled_from([f"n{i}" for i in range(12)])


@SETTINGS
@given(directed=st.booleans(), nodes=st.lists(NAMES, unique=True),
       edges=st.lists(st.tuples(NAMES, NAMES)),
       pieces=st.lists(st.lists(NAMES), max_size=4))
def test_any_graph_matches_networkx(directed, nodes, edges, pieces):
    """The graph type alone, self-loops included, with induced subgraphs
    of node sets built up by union (names outside the graph dropped)."""
    ours = PKIGraph(directed)
    theirs = nx.DiGraph() if directed else nx.Graph()
    for node in nodes:
        ours.add_node(node, label=node.upper())
        theirs.add_node(node, label=node.upper())
    for u, v in edges:
        ours.add_edge(u, v)
        theirs.add_edge(u, v)
    assert_same_graph(ours, theirs)
    undirected = theirs.to_undirected() if directed else theirs
    assert [ours.undirected_degree(n) for n in ours] == \
        [undirected.degree[n] for n in undirected]
    assert ours.components() == nx.number_connected_components(undirected)
    keep: set = set()
    for piece in pieces:
        keep |= set(piece)
    assert_same_graph(ours.subgraph(keep), theirs.subgraph(keep).copy())


@pytest.mark.parametrize("noise", [False, True])
def test_complex_subgraph_order_on_both_sides_of_half(pool, noise):
    """A mesh alone keeps over half its graph (graph order); the same
    mesh among chains with no complex hub keeps under half (set order)."""
    meshes = pool["meshes"]
    chains = [ObservedChain(path) for path in meshes[1]]
    if noise:
        # Two sub-intermediates per hub: below the three-link criterion.
        others = [ObservedChain(path) for path in meshes[0][:2] + meshes[2][:2]]
        chains = others[:2] + chains + others[2:]
    ours, theirs = build_issuance_graph(chains), nx_issuance_graph(chains)
    sub, nx_sub = complex_subgraph(ours), nx_complex_subgraph(theirs)
    assert sub.number_of_nodes() == SUBS_PER_HUB + 2
    assert (2 * len(sub) < len(ours)) == noise
    assert_same_graph(sub, nx_sub)
