"""Perfection, graph6 and isomorphism against networkx, a third-party oracle.

networkx is a test-only dependency; without it these tests are skipped.
"""

import random
from itertools import combinations

import pytest

from pgl import (
    GraphDocument,
    emit_graph,
    enumerate_graphs,
    find_isomorphism,
    find_odd_hole_or_antihole,
    is_berge,
    is_perfect,
    make_graph,
    parse_graph,
)

nx = pytest.importorskip("networkx")


def _assert_agrees(g):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    expected = nx.is_perfect_graph(h)
    assert is_perfect(g) == expected, g.edges
    assert is_berge(g) == expected, g.edges


def test_perfection_matches_networkx_on_six_vertex_graphs():
    for g in list(enumerate_graphs(6))[::8]:
        _assert_agrees(g)


def test_perfection_matches_networkx_on_random_graphs():
    rng = random.Random(2006)
    for n in range(7, 11):
        for density in (0.3, 0.5, 0.7):
            for _ in range(15):
                _assert_agrees(
                    make_graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < density])
                )


def test_berge_recognition_matches_networkx_past_twelve_vertices():
    rng = random.Random(2005)
    verdicts = {True: 0, False: 0}
    kinds = set()
    for n in range(13, 17):
        pairs = list(combinations(range(n), 2))
        for k in range(8):
            if k < 2:
                g = make_graph(range(n), [e for e in pairs if rng.random() < (0.15, 0.85)[k]])
            else:
                # Bipartite, split, then the complement of bipartite; every
                # other one with a planted 7-hole.
                side = set(rng.sample(range(n), n // 2))
                if k not in (4, 5):
                    edges = [(u, v) for u, v in pairs if (u in side) != (v in side) and rng.random() < 0.5]
                else:
                    edges = [(u, v) for u, v in pairs if u in side and (v in side or rng.random() < 0.5)]
                if k % 2:
                    hole = rng.sample(range(n), 7)
                    edges = [e for e in edges if not set(e) <= set(hole)]
                    edges += [tuple(sorted((hole[i - 1], hole[i]))) for i in range(7)]
                g = make_graph(range(n), edges)
                if k >= 6:
                    g = make_graph(range(n), [e for e in pairs if e not in set(g.edges)])
            expected = nx.is_perfect_graph(_nx_graph(g))
            assert is_berge(g) == expected, g.edges
            verdicts[expected] += 1
            kinds.add((find_odd_hole_or_antihole(g) or ("berge",))[0])
    assert min(verdicts.values()) >= 8, verdicts
    assert kinds == {"berge", "hole", "antihole"}


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    return h


def _random_graph(rng, n, density=0.5):
    return make_graph(range(n), [e for e in combinations(range(n), 2) if rng.random() < density])


def _assert_graph6_agrees(g):
    payload = emit_graph(g, "graph6").payload
    expected = nx.to_graph6_bytes(_nx_graph(g), header=False)
    assert payload.encode("ascii") + b"\n" == expected, g.edges
    back = nx.from_graph6_bytes(payload.encode("ascii"))
    assert sorted(back.nodes) == list(range(g.n))
    assert parse_graph(GraphDocument("graph6", payload)) == make_graph(back.nodes, back.edges)


def test_graph6_matches_networkx_on_small_graphs():
    for n in range(6):
        for g in enumerate_graphs(n):
            _assert_graph6_agrees(g)
    # Every seventh of the 32,768 six-vertex graphs, as all of them take
    # about 8 s.  An odd stride still meets every pattern of the low 12
    # edge bits, and every edge bit both set and clear.
    for g in list(enumerate_graphs(6))[::7]:
        _assert_graph6_agrees(g)


def test_graph6_matches_networkx_across_the_long_size_header():
    # n >= 63 switches to the four-character "~" size header.
    rng = random.Random(63)
    for n in (0, 1, 62, 63, 100, 300):
        _assert_graph6_agrees(_random_graph(rng, n))


def _flip(g, u, v):
    edges = set(g.edges) ^ {(min(u, v), max(u, v))}
    return make_graph(g.nodes, edges)


def test_isomorphism_verdicts_match_networkx():
    rng = random.Random(1972)
    checked = {True: 0, False: 0}
    for n in range(2, 11):
        for density in (0.3, 0.5, 0.7):
            for _ in range(6):
                g = _random_graph(rng, n, density)
                labels = list(range(n))
                rng.shuffle(labels)
                h = make_graph(labels, [(labels[u], labels[v]) for u, v in g.edges])
                u, v = rng.sample(range(n), 2)
                # The same graph relabelled, one pair flipped, and one edge
                # moved to a non-edge, which keeps the edge count.
                others = [h, _flip(h, u, v)]
                if 0 < g.m < n * (n - 1) // 2:
                    gone = rng.choice(sorted(h.edges))
                    new = rng.choice([e for e in combinations(range(n), 2) if e not in set(h.edges)])
                    others.append(_flip(_flip(h, *gone), *new))
                for other in others:
                    iso = nx.is_isomorphic(_nx_graph(g), _nx_graph(other))
                    assert (find_isomorphism(g, other) is None) == (not iso), (g.edges, other.edges)
                    checked[iso] += 1
    assert min(checked.values()) > 50, checked
