"""PKI graphs (Figures 5/7/8)."""

from __future__ import annotations

import pytest

from repro.core.chain import ObservedChain
from repro.core.structures import (
    build_cooccurrence_graph,
    build_issuance_graph,
    complex_intermediates,
    complex_subgraph,
    infer_role,
    summarize_graph,
)
from repro.x509 import CertificateFactory, name


def _observed(certs):
    chain = ObservedChain(tuple(certs))
    chain.usage.record(established=True, client_ip="10.0.0.1", server_ip="x",
                       port=443, sni=None, ts=0.0)
    return chain


@pytest.fixture()
def mesh_chains(factory):
    """A private PKI where one intermediate issues four sub-intermediates
    used across different chains — the Appendix I 'complex structure'."""
    root = factory.root(name("Mesh Root", o="Mesh"))
    hub = factory.intermediate(root, name("Mesh Hub CA", o="Mesh"),
                               path_len=None)
    chains = []
    for i in range(4):
        sub = factory.intermediate(hub, name(f"Mesh Sub CA {i}", o="Mesh"))
        leaf = factory.leaf(sub, name(f"svc{i}.mesh.example"))
        chains.append(_observed((leaf, sub.certificate, hub.certificate,
                                 root.certificate)))
    return chains


class TestRoleInference:
    def test_roles_in_standard_chain(self, factory):
        root = factory.root(name("R"))
        inter = factory.intermediate(root, name("I"))
        leaf = factory.leaf(inter, name("l.example"))
        chains = [_observed((leaf, inter.certificate, root.certificate))]
        assert infer_role(leaf, chains) == "leaf"
        assert infer_role(inter.certificate, chains) == "intermediate"
        assert infer_role(root.certificate, chains) == "root"

    def test_bare_self_signed_alone_is_leaf(self, factory):
        bare = factory.self_signed(name("alone.local"))
        assert infer_role(bare, [_observed((bare,))]) == "leaf"

    def test_bare_cert_that_issues_is_intermediate(self, factory):
        # Extension-less CA: role must come from observed issuance.
        fake_ca = factory.mismatched_pair_cert(name("above"), name("mid"))
        child = factory.mismatched_pair_cert(name("mid"), name("below.example"))
        chains = [_observed((child, fake_ca))]
        assert infer_role(fake_ca, chains) == "intermediate"


class TestCooccurrenceGraph:
    def test_nodes_and_edges(self, classifier, pki, factory):
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        leaf = factory.leaf(r3, name("co.example"))
        private = factory.self_signed(name("priv.local"))
        chains = [_observed((leaf, r3.certificate, private))]
        graph = build_cooccurrence_graph(chains, classifier)
        assert graph.number_of_nodes() == 3
        assert graph.number_of_edges() == 3  # triangle: all co-occur
        classes = {d["issuer_class"] for _, d in graph.nodes(data=True)}
        assert classes == {"public-db", "non-public-db"}

    def test_shared_intermediate_links_chains(self, classifier, pki, factory):
        r3 = pki.ca("lets_encrypt").intermediates["R3"]
        a = factory.leaf(r3, name("a.example"))
        b = factory.leaf(r3, name("b.example"))
        chains = [_observed((a, r3.certificate)), _observed((b, r3.certificate))]
        graph = build_cooccurrence_graph(chains, classifier)
        assert graph.number_of_nodes() == 3
        assert graph.degree[r3.certificate.fingerprint] == 2


class TestIssuanceGraph:
    def test_edges_follow_issuance(self, factory):
        root = factory.root(name("R"))
        leaf = factory.leaf(root, name("x.example"))
        graph = build_issuance_graph([_observed((leaf, root.certificate))])
        assert graph.has_edge(root.certificate.fingerprint, leaf.fingerprint)

    def test_mismatched_pair_contributes_no_edge(self, factory):
        a = factory.self_signed(name("a.local"))
        b = factory.self_signed(name("b.local"))
        graph = build_issuance_graph([_observed((a, b))])
        assert graph.number_of_edges() == 0

    def test_complex_intermediates_found(self, mesh_chains):
        graph = build_issuance_graph(mesh_chains)
        complex_nodes = complex_intermediates(graph)
        labels = {graph.nodes[n]["label"] for n in complex_nodes}
        assert labels == {"Mesh Hub CA"}

    def test_simple_pki_has_no_complex_intermediates(self, factory):
        root = factory.root(name("Simple Root"))
        inter = factory.intermediate(root, name("Simple Inter"))
        leaf = factory.leaf(inter, name("s.example"))
        graph = build_issuance_graph(
            [_observed((leaf, inter.certificate, root.certificate))])
        assert complex_intermediates(graph) == []

    def test_complex_subgraph_includes_neighborhood(self, mesh_chains):
        graph = build_issuance_graph(mesh_chains)
        sub = complex_subgraph(graph)
        # hub + root + 4 sub-CAs (+ no leaves: they are the hub's
        # grandchildren, not neighbours).
        roles = [sub.nodes[n]["role"] for n in sub]
        assert roles.count("intermediate") == 5
        assert roles.count("root") == 1

    def test_summary(self, mesh_chains, classifier):
        graph = build_issuance_graph(mesh_chains)
        summary = summarize_graph(graph)
        assert summary.nodes == 10  # 4 leaves + 4 subs + hub + root
        assert summary.complex_intermediates == 1
        assert summary.components == 1
