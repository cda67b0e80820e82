"""PKI relationship graphs (Figures 5, 7, 8; Appendix E, I).

Figure 5 draws certificates in hybrid chains with co-occurrence edges
("two nodes are connected if ever observed together in at least one
chain"), coloured by issuer class and sized by hierarchy role.  Figures 7
and 8 extract the *complex* PKI structures in non-public-only and
interception chains: intermediate certificates linked to at least three
distinct other intermediates across chains.

The figures need adjacency, degrees, connected components and Appendix
I's link test, so :class:`PKIGraph` holds each graph as insertion-ordered
adjacency maps rather than pulling in a graph library.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (AbstractSet, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from ..x509.certificate import Certificate
from .chain import ObservedChain
from .classification import CertificateClassifier

__all__ = [
    "PKIGraph",
    "infer_role",
    "build_cooccurrence_graph",
    "build_issuance_graph",
    "complex_intermediates",
    "complex_subgraph",
    "GraphSummary",
    "summarize_graph",
]


class _Nodes(dict):
    """Node -> attribute dict in insertion order; ``nodes(data=True)``
    yields ``(node, attributes)`` pairs."""

    __slots__ = ()

    def __call__(self, data: bool = False):
        return self.items() if data else self.keys()


class _Degrees:
    """``graph.degree[node]``: in + out links when directed, and a
    self-loop counts twice when not."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "PKIGraph") -> None:
        self._graph = graph

    def __getitem__(self, node: str) -> int:
        graph = self._graph
        if graph.directed:
            return len(graph._succ[node]) + len(graph._pred[node])
        adjacent = graph._succ[node]
        return len(adjacent) + (node in adjacent)


class PKIGraph:
    """A certificate graph as insertion-ordered adjacency maps.

    Nodes are certificate fingerprints with an attribute dict.  A
    directed graph keeps successor and predecessor maps; an undirected
    one keeps a single adjacency map under both names.  Node, edge and
    neighbour order, degrees and :meth:`subgraph` follow networkx 3.x's
    ``Graph``/``DiGraph`` (the tests hold the two equal), so the figures
    keep the order their published renderings use.
    """

    __slots__ = ("directed", "nodes", "_succ", "_pred", "_edges")

    def __init__(self, directed: bool = False) -> None:
        self.directed = directed
        self.nodes = _Nodes()
        self._succ: Dict[str, Dict[str, None]] = {}
        self._pred = {} if directed else self._succ
        self._edges = 0

    def add_node(self, node: str, **attrs) -> None:
        if node in self.nodes:
            self.nodes[node].update(attrs)
            return
        self.nodes[node] = attrs
        self._succ[node] = {}
        if self.directed:
            self._pred[node] = {}

    def add_edge(self, u: str, v: str) -> None:
        for node in (u, v):
            if node not in self.nodes:
                self.add_node(node)
        if v not in self._succ[u]:
            self._succ[u][v] = None
            self._pred[v][u] = None
            self._edges += 1

    def __iter__(self) -> Iterator[str]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: object) -> bool:
        return node in self.nodes

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return self._edges

    @property
    def degree(self) -> _Degrees:
        return _Degrees(self)

    def out_degree(self, node: str) -> int:
        return len(self._succ[node])

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._succ and v in self._succ[u]

    def successors(self, node: str) -> Iterator[str]:
        return iter(self._succ[node])

    def predecessors(self, node: str) -> Iterator[str]:
        return iter(self._pred[node])

    def links(self, node: str) -> AbstractSet[str]:
        """Neighbours with edge directions ignored."""
        if self.directed:
            return self._succ[node].keys() | self._pred[node].keys()
        return self._succ[node].keys()

    def undirected_degree(self, node: str) -> int:
        """Degree once reciprocal edges are merged, as in networkx's
        ``to_undirected()``."""
        return len(self.links(node)) + (node in self._succ[node])

    def components(self) -> int:
        """Connected components with edge directions ignored."""
        seen: set[str] = set()
        count = 0
        for start in self.nodes:
            if start in seen:
                continue
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                for neighbour in self.links(stack.pop()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
        return count

    def subgraph(self, nodes: Iterable[str]) -> "PKIGraph":
        """The induced subgraph, as a copy in networkx 3.x's node order.

        networkx filters through ``set(n for n in nodes if n in graph)``
        and iterates that set when it is under half the graph, the
        graph's own order otherwise; Figures 7/8 print a ``Counter`` in
        this order, so it is kept exactly.
        """
        chosen = set(n for n in nodes if n in self.nodes)
        if 2 * len(chosen) < len(self.nodes):
            order: Iterable[str] = chosen
        else:
            order = [n for n in self.nodes if n in chosen]
        sub = PKIGraph(self.directed)
        for node in order:
            sub.add_node(node, **self.nodes[node])
        for u in sub.nodes:
            for v in self._succ[u]:
                if v in chosen:
                    sub.add_edge(u, v)
        return sub


def infer_role(certificate: Certificate,
               chains: Sequence[ObservedChain]) -> str:
    """Infer leaf/intermediate/root from names and extensions, as a
    log-based observer must (ground-truth roles are never consulted).
    """
    issues_someone = any(
        certificate.issued(other)
        for chain in chains
        for other in chain.certificates
        if other.fingerprint != certificate.fingerprint
    )
    return _role_from(certificate, issues_someone)


def _role_from(certificate: Certificate, issues_someone: bool) -> str:
    if certificate.is_self_signed:
        return "root" if (issues_someone or _declares_ca(certificate)) else "leaf"
    if _declares_ca(certificate) or issues_someone:
        return "intermediate"
    return "leaf"


def _roles_for_chains(chains: Sequence[ObservedChain]) -> Dict[str, str]:
    """Role for every distinct certificate, in one pass.

    Equivalent to calling :func:`infer_role` per certificate, but indexes
    issuer names once instead of rescanning all chains per certificate.
    """
    def dn_key(dn) -> tuple:
        return tuple(sorted(dn.normalized()))

    certificates: Dict[str, Certificate] = {}
    #: issuer name -> how many distinct certificates name it as issuer.
    issuer_name_counts: Counter = Counter()
    #: fingerprint -> whether the certificate names *itself* as issuer.
    for chain in chains:
        for certificate in chain.certificates:
            if certificate.fingerprint not in certificates:
                certificates[certificate.fingerprint] = certificate
                issuer_name_counts[dn_key(certificate.issuer)] += 1
    roles: Dict[str, str] = {}
    for fingerprint, certificate in certificates.items():
        key = dn_key(certificate.subject)
        named_by = issuer_name_counts.get(key, 0)
        if certificate.is_self_signed:
            # The certificate names itself; anyone else naming it means it
            # issues someone.
            issues_someone = named_by > 1
        else:
            issues_someone = named_by > 0
        roles[fingerprint] = _role_from(certificate, issues_someone)
    return roles


def _declares_ca(certificate: Certificate) -> bool:
    bc = certificate.extensions.basic_constraints
    return bc is not None and bc.ca


def build_cooccurrence_graph(chains: Sequence[ObservedChain],
                             classifier: Optional[CertificateClassifier] = None
                             ) -> PKIGraph:
    """Figure 5's graph: one node per distinct certificate, an edge for
    every pair that co-occurs in at least one chain.

    Node attributes: ``label`` (short name), ``issuer_class``
    ("public-db"/"non-public-db"/"unknown"), ``role``
    ("leaf"/"intermediate"/"root").
    """
    graph = PKIGraph()
    roles = _roles_for_chains(chains)
    for chain in chains:
        for certificate in chain.certificates:
            if certificate.fingerprint not in graph:
                issuer_class = "unknown"
                if classifier is not None:
                    issuer_class = classifier.classify(certificate).value
                graph.add_node(
                    certificate.fingerprint,
                    label=certificate.short_name(),
                    issuer_class=issuer_class,
                    role=roles[certificate.fingerprint],
                )
        fps = [c.fingerprint for c in chain.certificates]
        for i, a in enumerate(fps):
            for b in fps[i + 1:]:
                if a != b:
                    graph.add_edge(a, b)
    return graph


def build_issuance_graph(chains: Sequence[ObservedChain]) -> PKIGraph:
    """Figures 7/8's graph: edges point from the issuing certificate to the
    certificate it issued, across all delivered chains (only pairs whose
    names actually chain contribute edges)."""
    graph = PKIGraph(directed=True)
    roles = _roles_for_chains(chains)
    for chain in chains:
        certs = chain.certificates
        for certificate in certs:
            if certificate.fingerprint not in graph:
                graph.add_node(
                    certificate.fingerprint,
                    label=certificate.short_name(),
                    role=roles[certificate.fingerprint],
                )
        for child, parent in zip(certs, certs[1:]):
            if parent.issued(child):
                graph.add_edge(parent.fingerprint, child.fingerprint)
    return graph


def complex_intermediates(graph: PKIGraph, *, min_links: int = 3) -> List[str]:
    """Appendix I's criterion: intermediates linked to at least
    ``min_links`` distinct *intermediate* certificates across chains."""
    nodes = graph.nodes
    result = []
    for node, data in nodes(data=True):
        if data.get("role") != "intermediate":
            continue
        linked = sum(1 for n in graph.links(node)
                     if nodes[n].get("role") == "intermediate")
        if linked >= min_links:
            result.append(node)
    return result


def complex_subgraph(graph: PKIGraph, *, min_links: int = 3) -> PKIGraph:
    """The subgraph shown in Figures 7/8: complex intermediates plus their
    immediate neighborhoods."""
    cores = complex_intermediates(graph, min_links=min_links)
    # Built set by set as it always was: when the subgraph is under half
    # the graph, this set's iteration order is its node order.
    keep: set[str] = set(cores)
    for node in cores:
        keep |= set(graph.predecessors(node))
        keep |= set(graph.successors(node))
    return graph.subgraph(keep)


@dataclass(frozen=True, slots=True)
class GraphSummary:
    """The printable series behind a PKI-structure figure."""

    nodes: int
    edges: int
    nodes_by_role: tuple[tuple[str, int], ...]
    nodes_by_class: tuple[tuple[str, int], ...]
    components: int
    max_degree: int
    complex_intermediates: int

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "nodes_by_role": dict(self.nodes_by_role),
            "nodes_by_class": dict(self.nodes_by_class),
            "components": self.components,
            "max_degree": self.max_degree,
            "complex_intermediates": self.complex_intermediates,
        }


def summarize_graph(graph: PKIGraph, *, min_links: int = 3) -> GraphSummary:
    roles = Counter(data.get("role", "unknown")
                    for data in graph.nodes.values())
    classes = Counter(data.get("issuer_class", "unknown")
                      for data in graph.nodes.values())
    if graph.directed:
        complex_count = len(complex_intermediates(graph, min_links=min_links))
    else:
        complex_count = 0
    return GraphSummary(
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
        nodes_by_role=tuple(sorted(roles.items())),
        nodes_by_class=tuple(sorted(classes.items())),
        components=graph.components(),
        max_degree=max((graph.undirected_degree(node) for node in graph),
                       default=0),
        complex_intermediates=complex_count,
    )
