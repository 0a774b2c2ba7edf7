"""Canonical finite simple graphs over non-negative integer vertices.

A graph is a sorted duplicate-free node tuple plus one adjacency bitmask
row per node, symmetric with an empty diagonal; its (low, high) edge
list is read off the rows' upper triangle on demand.  Graphs are
immutable values, so they are safe to share between concurrent
workers, and every operation here is pure.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Iterable, Mapping, Sequence

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


class _Once:
    """A field computed on its first read and stored in the instance's __dict__.

    Later reads find the stored value before this descriptor, which
    defines no __set__.  Unlike functools.cached_property it takes no
    lock, which on Python 3.11 costs an RLock round trip per first read;
    a race can only compute the same value twice.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class Graph:
    """A finite simple undirected graph in canonical form.

    Bit j of bit_adjacency[i] means nodes[i] ~ nodes[j].  Two graphs
    compare equal exactly when their node tuples and rows match.  The
    constructor validates nothing: build graphs from input through
    :func:`make_graph`, which checks it.

    The two fields sit in slots, set once by the constructor; assigning
    or deleting any attribute raises FrozenInstanceError, as on a frozen
    dataclass, though Graph is no longer one.  edges and index are
    computed on first read, once per graph.  A pickle carries only the
    two fields; one written when Graph was a dataclass still loads.
    """

    __slots__ = ("nodes", "bit_adjacency", "__dict__", "__weakref__")
    __match_args__ = ("nodes", "bit_adjacency")

    nodes: VertexSet
    bit_adjacency: tuple[int, ...]

    def __init__(self, nodes: VertexSet, bit_adjacency: tuple[int, ...]) -> None:
        _set_nodes(self, nodes)
        _set_rows(self, bit_adjacency)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes and self.bit_adjacency == other.bit_adjacency

    def __hash__(self) -> int:
        return hash((self.nodes, self.bit_adjacency))

    def __reduce__(self):
        return Graph, (self.nodes, self.bit_adjacency)

    def __setstate__(self, state: dict) -> None:
        # Only a dataclass-era pickle has state: its instance dict.
        _set_nodes(self, state["nodes"])
        _set_rows(self, state["bit_adjacency"])

    def __repr__(self) -> str:
        return f"Graph(nodes={self.nodes!r}, edges={self.edges!r})"

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.bit_adjacency) // 2

    @_Once
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

    @_Once
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


# The slot setters, which the constructor calls past Graph.__setattr__.
_set_nodes = Graph.nodes.__set__
_set_rows = Graph.bit_adjacency.__set__


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


def _refuse_aliasing_keys(G: Graph, f: Mapping) -> None:
    """vertex_set's ValueError on a key of f that is no plain int but equals a node (True, 1.0).

    Only such keys go through vertex_set; an int subclass among them passes.
    """
    aliases = [v for v in f if type(v) is not int and v in G.index]
    if aliases:
        vertex_set(aliases)


def _is_morphism(rows: Sequence[int], target: Sequence[int], image: Sequence[int]) -> bool:
    """True when i -> image[i] maps rows onto the target rows keeping edge and non-edge.

    With pre[w] the mask of the positions sent to w: no pre[w] is empty,
    and each row i is the OR of pre[w] over the set bits w of the target
    row of image[i].  On loop-free rows that leaves out i and its fellow
    preimages; on closed rows, each holding its own bit, it takes them in.
    """
    pre = [0] * len(target)
    for i, w in enumerate(image):
        pre[w] |= 1 << i
    if 0 in pre:
        return False
    reach = []
    for row in target:
        acc = 0
        while row:
            low = row & -row
            acc |= pre[low.bit_length() - 1]
            row ^= low
        reach.append(acc)
    return [reach[w] for w in image] == list(rows)


def _complement_rows(rows: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows of the complement: each row flipped inside the node set, diagonal kept empty."""
    full = (1 << len(rows)) - 1
    return tuple(full ^ row ^ (1 << i) for i, row in enumerate(rows))


def make_graph(nodes: Iterable[int], edges: Iterable[Sequence[int]] = ()) -> Graph:
    """Build a canonical graph from permissive input.

    Nodes are sorted and deduplicated, and repeated or reversed edges
    collapse into one.  The edges are checked in order, and the first bad
    one raises: ValueError for an edge that is not a pair of integers,
    SelfLoopError for a pair (v, v) and DanglingEdgeError when an
    endpoint is missing from the node set.
    """
    ns = vertex_set(nodes)
    us: list[int] = []
    vs: list[int] = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            # The pairs before this edge are checked first.
            _pair_rows(ns, us, vs)
            raise ValueError(f"edge must be a pair of vertex ids, got {e!r}") from None
        if (type(u) is not int or type(v) is not int) and (
            isinstance(u, bool) or isinstance(v, bool) or not isinstance(u, int) or not isinstance(v, int)
        ):
            _pair_rows(ns, us, vs)
            raise ValueError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
        us.append(u)
        vs.append(v)
    return Graph(ns, _pair_rows(ns, us, vs))


def _pair_rows(nodes: VertexSet, us: Sequence[int], vs: Sequence[int]) -> tuple[int, ...]:
    """Adjacency rows on the sorted ids nodes, with an edge us[k] ~ vs[k] for each k.

    Repeated and reversed pairs collapse into one edge.  The pairs are
    checked in order: the first (v, v) raises SelfLoopError and the first
    with an endpoint outside nodes raises DanglingEdgeError.
    """
    idx = {v: i for i, v in enumerate(nodes)}
    rows = [0] * len(nodes)
    for u, v in zip(us, vs):
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        try:
            i = idx[u]
            j = idx[v]
        except KeyError:
            missing = u if u not in idx else v
            raise DanglingEdgeError(f"edge ({u}, {v}) endpoint {missing} not in nodes") from None
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """Restrict G to the vertex set S, keeping exactly the edges inside S."""
    sub = vertex_set(S)
    idx = G.index
    missing = [v for v in sub if v not in idx]
    if missing:
        raise NotSubsetError(f"vertices {missing} not in graph")
    return Graph(sub, _compacted_rows(G.bit_adjacency, sum(1 << idx[v] for v in sub)))


def _compacted_rows(rows: Sequence[int], keep: int) -> tuple[int, ...]:
    """The rows at keep's set bits, each cut to keep's columns: the rows induced on keep.

    Bit p of keep moves to bit k, its rank among keep's set bits.
    """
    moved = {}
    rest = keep
    while rest:
        low = rest & -rest
        moved[low] = 1 << len(moved)
        rest ^= low
    out = []
    for bit in moved:
        old = rows[bit.bit_length() - 1] & keep
        row = 0
        while old:
            low = old & -old
            row |= moved[low]
            old ^= low
        out.append(row)
    return tuple(out)


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
