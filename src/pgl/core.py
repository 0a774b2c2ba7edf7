"""Canonical finite simple graphs over non-negative integer vertices.

A graph is a sorted duplicate-free node tuple plus a sorted tuple of
(low, high) edge pairs confined to the nodes; the symmetric twin of each
pair is implied and self-loops are rejected.  Graphs are immutable
values, so they are safe to share between concurrent workers, and every
operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DanglingEdgeError, NotSubsetError, SelfLoopError

Vertex = int
VertexSet = tuple[int, ...]
Cover = tuple[VertexSet, ...]


def vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Sort and deduplicate vertices into a canonical vertex set."""
    out = tuple(sorted(set(vertices)))
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
    return out


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph in canonical form.

    Build instances through :func:`make_graph`, which canonicalizes
    permissive input; two graphs compare equal exactly when their node
    and edge tuples match.
    """

    nodes: VertexSet
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.nodes}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    @cached_property
    def index(self) -> dict[int, int]:
        """Position of each vertex in the sorted node tuple."""
        return {v: i for i, v in enumerate(self.nodes)}

    @cached_property
    def bit_adjacency(self) -> tuple[int, ...]:
        """Adjacency bitmask per node position; bit j of entry i means nodes[i] ~ nodes[j]."""
        masks = [0] * self.n
        idx = self.index
        for u, v in self.edges:
            iu, iv = idx[u], idx[v]
            masks[iu] |= 1 << iv
            masks[iv] |= 1 << iu
        return tuple(masks)

    def has_node(self, v: int) -> bool:
        return v in self.index

    def adjacent(self, u: int, v: int) -> bool:
        """Edge test; False on the diagonal and for pairs outside the node set."""
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    def neighbors(self, v: int) -> VertexSet:
        return tuple(sorted(self._adjacency.get(v, ())))

    def degree(self, v: int) -> int:
        return len(self._adjacency.get(v, ()))


def make_graph(nodes: Iterable[int], edges: Iterable[Sequence[int]] = ()) -> Graph:
    """Build a canonical graph from permissive input.

    Nodes and edges are sorted and deduplicated; each edge is stored once
    in (low, high) order.  Raises SelfLoopError for a pair (v, v) and
    DanglingEdgeError when an endpoint is missing from the node set.
    """
    ns = vertex_set(nodes)
    members = set(ns)
    canon: set[tuple[int, int]] = set()
    for u, v in edges:
        if isinstance(u, bool) or isinstance(v, bool) or not isinstance(u, int) or not isinstance(v, int):
            raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u not in members or v not in members:
            missing = u if u not in members else v
            raise DanglingEdgeError(f"edge ({u}, {v}) endpoint {missing} not in nodes")
        canon.add((u, v) if u < v else (v, u))
    return Graph(ns, tuple(sorted(canon)))


def _graph_from_rows(nodes: VertexSet, rows: Sequence[int]) -> Graph:
    """Graph on sorted duplicate-free nodes from symmetric adjacency rows.

    Bit j of rows[i] means nodes[i] ~ nodes[j]; the rows must be
    symmetric with an empty diagonal.  The canonical edge tuple is read
    off the upper triangle row by row, and the rows are kept as the
    graph's bit_adjacency.  Nothing is validated: this is for
    constructions that derive both arguments themselves.
    """
    edges: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        u = nodes[i]
        upper = row >> (i + 1)
        while upper:
            low = upper & -upper
            edges.append((u, nodes[i + low.bit_length()]))
            upper ^= low
    G = Graph(nodes, tuple(edges))
    G.__dict__["bit_adjacency"] = tuple(rows)
    return G


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """Restrict G to the vertex set S, keeping exactly the edges inside S."""
    sub = vertex_set(S)
    members = set(sub)
    if not members <= set(G.nodes):
        missing = sorted(members - set(G.nodes))
        raise NotSubsetError(f"vertices {missing} not in graph")
    return Graph(sub, tuple(e for e in G.edges if e[0] in members and e[1] in members))


def complement(G: Graph) -> Graph:
    """Same nodes; distinct u, v adjacent exactly when they are not adjacent in G."""
    present = G._edge_set
    return Graph(G.nodes, tuple(p for p in combinations(G.nodes, 2) if p not in present))


def union_over(C: Sequence[Iterable[int]]) -> VertexSet:
    """Sorted duplicate-free union of all parts of a cover."""
    out: set[int] = set()
    for part in C:
        out.update(part)
    return vertex_set(out)


def is_induced_subgraph(H: Graph, G: Graph) -> bool:
    """True when H is exactly G restricted to H's nodes."""
    if not set(H.nodes) <= set(G.nodes):
        return False
    return H == induced_subgraph(G, H.nodes)
