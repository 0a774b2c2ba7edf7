"""Isomorphism witnesses between graphs and desk-scale witness search.

A witness is an explicit pair of vertex maps (forward, backward); both
directions are checked as edge-preserving morphisms and the composite
must be the identity on the source.  The morphism check works on the
bitmask rows: each row of the source must equal the OR of the preimage
masks of its image's neighbours.  The search backtracks over
degree-compatible bijections only, pruned further by neighborhood
degree multisets read off the rows' popcounts, and tests each candidate
with one mask comparison: its row, cut to the vertices of H mapped so
far, must equal the mask of the images of the source vertex's mapped
neighbours.  The search shares no state with the morphism check, which
re-checks its witness from the maps alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import Graph, _is_morphism, _node_positions, _refuse_aliasing_keys
from .errors import PartialMapError


@dataclass(frozen=True)
class IsoWitness:
    forward: dict[int, int]
    backward: dict[int, int]


def verify_morph(f: Mapping[int, int], G: Graph, H: Graph) -> bool:
    """True when f maps G's nodes onto H's nodes preserving edge and non-edge.

    Works on bitmask rows: each image is looked up at its position in H,
    and core._is_morphism checks G's rows against H's.  Only an image
    that is not a plain int goes through vertex_set, which raises
    ValueError on a bool, negative or non-int id; so does a key of f
    that only equals a node (True for 1).
    """
    _refuse_aliasing_keys(G, f)
    for v in G.nodes:
        if v not in f:
            raise PartialMapError(f"map undefined on vertex {v}")
    image = _node_positions(H, [f[v] for v in G.nodes])
    if image is None:
        return False
    return _is_morphism(G.bit_adjacency, H.bit_adjacency, image)


def verify_iso_witness(w: IsoWitness, G: Graph, H: Graph) -> bool:
    """True when forward and backward are mutually inverse morphisms G <-> H."""
    try:
        if not verify_morph(w.forward, G, H):
            return False
        if not verify_morph(w.backward, H, G):
            return False
    except PartialMapError:
        return False
    return all(w.backward[w.forward[x]] == x for x in G.nodes)


def _degree_profile(G: Graph) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Each node's degree and the sorted degrees of its neighbours, by row popcounts."""
    degrees = [row.bit_count() for row in G.bit_adjacency]
    profile = {}
    for v, row, d in zip(G.nodes, G.bit_adjacency, degrees):
        around = []
        while row:
            low = row & -row
            around.append(degrees[low.bit_length() - 1])
            row ^= low
        profile[v] = (d, tuple(sorted(around)))
    return profile


def find_isomorphism(G: Graph, H: Graph) -> IsoWitness | None:
    """Search for a verified witness G -> H; None when the graphs differ.

    Short-circuits on node/edge counts and degree multisets, then
    backtracks over candidates with matching degree profiles.  Exact at
    desk scale; larger inputs are best effort.
    """
    if G.n != H.n or G.m != H.m:
        return None
    pg = _degree_profile(G)
    ph = _degree_profile(H)
    if sorted(pg.values()) != sorted(ph.values()):
        return None
    grows, hrows = G.bit_adjacency, H.bit_adjacency
    # The candidates of a vertex of G: the positions in H, in H's order,
    # of the vertices with its degree profile.
    same_profile: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for j, w in enumerate(H.nodes):
        same_profile.setdefault(ph[w], []).append(j)
    candidates = [same_profile[pg[v]] for v in G.nodes]
    order = sorted(range(G.n), key=lambda i: (len(candidates[i]), -grows[i].bit_count(), i))
    # image[i] is the bit in H of the image of G's vertex at position i,
    # read only while bit i is in mapped_g.
    image = [0] * G.n

    def rec(pos: int, mapped_g: int, mapped_h: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        # The images of i's mapped neighbours: a candidate must be adjacent
        # to exactly these among the mapped vertices of H.
        want = 0
        m = grows[i] & mapped_g
        while m:
            low = m & -m
            want |= image[low.bit_length() - 1]
            m ^= low
        for j in candidates[i]:
            w = 1 << j
            if not mapped_h & w and hrows[j] & mapped_h == want:
                image[i] = w
                if rec(pos + 1, mapped_g | 1 << i, mapped_h | w):
                    return True
        return False

    try:
        if not rec(0, 0, 0):
            return None
    finally:
        # rec holds its own cell: drop it so no reference cycle is left.
        del rec
    forward = {v: H.nodes[image[i].bit_length() - 1] for i, v in enumerate(G.nodes)}
    backward = {w: v for v, w in forward.items()}
    witness = IsoWitness(forward, backward)
    if not verify_iso_witness(witness, G, H):
        raise AssertionError("find_isomorphism built a witness that does not verify")
    return witness


def compose_witnesses(first: IsoWitness, second: IsoWitness) -> IsoWitness:
    """Witness G -> K obtained from witnesses G -> H and H -> K."""
    forward = {x: second.forward[y] for x, y in first.forward.items()}
    backward = {z: first.backward[y] for z, y in second.backward.items()}
    return IsoWitness(forward, backward)
