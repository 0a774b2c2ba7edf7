"""Perfection and Berge recognition against networkx, a third-party oracle.

networkx is a test-only dependency; without it these tests are skipped.
"""

import random
from itertools import combinations

import pytest

from pgl import enumerate_graphs, is_berge, is_perfect, make_graph

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
