"""Canonical finite simple graphs over non-negative integer vertices.

A graph is a sorted duplicate-free node tuple plus one adjacency bitmask
row per node, symmetric with an empty diagonal; its (low, high) edge
list is read off the rows' upper triangle on demand.  Graphs are
immutable values, so they are safe to share between concurrent
workers, and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DanglingEdgeError, NotSubsetError, SelfLoopError

Vertex = int
VertexSet = tuple[int, ...]
Cover = tuple[VertexSet, ...]


def vertex_set(vertices: Iterable[int]) -> VertexSet:
    """Sort and deduplicate vertices; ValueError on an id that is not a non-negative int."""
    members: set[int] = set()
    for v in vertices:
        # Types before the sort, which would raise TypeError on mixed ids;
        # a plain int skips the isinstance checks.
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
            raise ValueError(f"vertex ids must be non-negative integers, got {v!r}")
        members.add(v)
    out = tuple(sorted(members))
    if out and out[0] < 0:
        raise ValueError(f"vertex ids must be non-negative integers, got {out[0]!r}")
    return out


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph in canonical form.

    Bit j of bit_adjacency[i] means nodes[i] ~ nodes[j].  Two graphs
    compare equal exactly when their node tuples and rows match.  The
    constructor validates nothing: build graphs from input through
    :func:`make_graph`, which checks it.
    """

    nodes: VertexSet
    bit_adjacency: tuple[int, ...]

    def __repr__(self) -> str:
        return f"Graph(nodes={self.nodes!r}, edges={self.edges!r})"

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.bit_adjacency) // 2

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted (low, high) edge pairs, read off the upper triangle row by row."""
        nodes = self.nodes
        out: list[tuple[int, int]] = []
        for i, row in enumerate(self.bit_adjacency):
            u = nodes[i]
            upper = row >> (i + 1)
            while upper:
                low = upper & -upper
                out.append((u, nodes[i + low.bit_length()]))
                upper ^= low
        return tuple(out)

    @cached_property
    def index(self) -> dict[int, int]:
        """Position of each vertex in the sorted node tuple."""
        return {v: i for i, v in enumerate(self.nodes)}

    def has_node(self, v: int) -> bool:
        return v in self.index

    def adjacent(self, u: int, v: int) -> bool:
        """Edge test; False on the diagonal and for pairs outside the node set."""
        idx = self.index
        try:
            return self.bit_adjacency[idx[u]] >> idx[v] & 1 == 1
        except KeyError:
            return False

    def neighbors(self, v: int) -> VertexSet:
        i = self.index.get(v)
        return () if i is None else _mask_vertices(self, self.bit_adjacency[i])

    def degree(self, v: int) -> int:
        i = self.index.get(v)
        return 0 if i is None else self.bit_adjacency[i].bit_count()


def _mask_vertices(G: Graph, mask: int) -> VertexSet:
    """The nodes of G at the set bit positions of mask, in order."""
    nodes = G.nodes
    out = []
    while mask:
        low = mask & -mask
        out.append(nodes[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def _node_positions(G: Graph, ids: Sequence[int]) -> list[int] | None:
    """Position of each id in G's node tuple; None when an id is not a node of G.

    A plain int is looked up directly.  Only when one is not does the
    sequence go through vertex_set, which raises ValueError on a bool,
    negative or non-int id; an int subclass that passes it is looked up
    like the int it equals.
    """
    index = G.index
    positions = [index.get(v) if type(v) is int else None for v in ids]
    if None in positions:
        vertex_set(ids)
        positions = [index.get(v) for v in ids]
        if None in positions:
            return None
    return positions


def _gather(rows: Sequence[int], masks: Sequence[int]) -> list[int]:
    """For each row, the OR of masks[k] over the row's set bits k."""
    out = []
    for row in rows:
        acc = 0
        while row:
            low = row & -row
            acc |= masks[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _complement_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the complement: each row flipped inside the node set, diagonal kept empty."""
    full = (1 << len(rows)) - 1
    return tuple(full ^ row ^ (1 << i) for i, row in enumerate(rows))


def make_graph(nodes: Iterable[int], edges: Iterable[Sequence[int]] = ()) -> Graph:
    """Build a canonical graph from permissive input.

    Nodes are sorted and deduplicated, and repeated or reversed edges
    collapse into one.  Raises ValueError for an edge that is not a pair
    of integers, SelfLoopError for a pair (v, v) and DanglingEdgeError
    when an endpoint is missing from the node set.
    """
    ns = vertex_set(nodes)
    idx = {v: i for i, v in enumerate(ns)}
    rows = [0] * len(ns)
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise ValueError(f"edge must be a pair of vertex ids, got {e!r}") from None
        if (type(u) is not int or type(v) is not int) and (
            isinstance(u, bool) or isinstance(v, bool) or not isinstance(u, int) or not isinstance(v, int)
        ):
            raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        if u not in idx or v not in idx:
            missing = u if u not in idx else v
            raise DanglingEdgeError(f"edge ({u}, {v}) endpoint {missing} not in nodes")
        i, j = idx[u], idx[v]
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(ns, tuple(rows))


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """Restrict G to the vertex set S, keeping exactly the edges inside S."""
    sub = vertex_set(S)
    idx = G.index
    missing = [v for v in sub if v not in idx]
    if missing:
        raise NotSubsetError(f"vertices {missing} not in graph")
    # Bit idx[v] of a row of G moves to bit k, the position of v in sub.
    moved = {1 << idx[v]: 1 << k for k, v in enumerate(sub)}
    keep = sum(moved)
    rows = []
    for bit in moved:
        old = G.bit_adjacency[bit.bit_length() - 1] & keep
        row = 0
        while old:
            low = old & -old
            row |= moved[low]
            old ^= low
        rows.append(row)
    return Graph(sub, tuple(rows))


def complement(G: Graph) -> Graph:
    """Same nodes; distinct u, v adjacent exactly when they are not adjacent in G."""
    return Graph(G.nodes, _complement_rows(G.bit_adjacency))


def union_over(C: Sequence[Iterable[int]]) -> VertexSet:
    """Sorted duplicate-free union of all parts of a cover."""
    return vertex_set(v for part in C for v in part)


def is_induced_subgraph(H: Graph, G: Graph) -> bool:
    """True when H is exactly G restricted to H's nodes."""
    if not set(H.nodes) <= set(G.nodes):
        return False
    return H == induced_subgraph(G, H.nodes)
