"""Parameters, covers, colorings, niceness and perfection."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgl import (
    InvalidColoringError,
    NotAStableCoverError,
    TooLargeError,
    check_cover,
    coloring_to_cover,
    colors_used,
    complement,
    cover_to_coloring,
    enumerate_graphs,
    graph_parameters,
    imperfection_witness,
    induced_subgraph,
    is_clique,
    is_nice,
    is_perfect,
    is_stable,
    is_valid_coloring,
    make_graph,
    max_stable_sets,
    replicate,
)

from conftest import complete, cycle, edgeless, house, joined_double_pentagon, path, run_optimized


def test_is_stable():
    assert is_stable(cycle(5), [1, 3])
    assert not is_stable(cycle(5), [1, 2])
    assert is_stable(house(), [1, 3])
    assert not is_stable(house(), [2, 4])
    assert not is_stable(cycle(5), [1, 99])


def test_is_clique():
    assert is_clique(house(), [2, 3, 4])
    assert all(is_clique(cycle(5), [v]) for v in range(1, 6))
    assert not is_clique(cycle(5), [1, 2, 3])


def test_is_valid_coloring():
    assert is_valid_coloring(cycle(5), {1: 0, 2: 1, 3: 0, 4: 1, 5: 2})
    assert not is_valid_coloring(cycle(5), {1: 0, 2: 1, 3: 0, 4: 1, 5: 0})
    assert is_valid_coloring(complete(3), {1: 5, 2: 7, 3: 9})
    assert not is_valid_coloring(cycle(5), {1: 0, 2: 1})


def test_parameters_of_pentagon():
    p = graph_parameters(cycle(5))
    assert (p.alpha, p.omega, p.chi) == (2, 2, 3)


def test_parameters_of_joined_double_pentagon():
    p = graph_parameters(joined_double_pentagon())
    assert (p.omega, p.chi) == (4, 6)
    assert p.alpha == 2


def test_parameters_trivial_graphs():
    assert (lambda p: (p.alpha, p.omega, p.chi))(graph_parameters(complete(4))) == (1, 4, 4)
    assert (lambda p: (p.alpha, p.omega, p.chi))(graph_parameters(edgeless(3))) == (3, 1, 1)
    assert (lambda p: (p.alpha, p.omega, p.chi))(graph_parameters(make_graph([]))) == (0, 0, 0)


def test_parameter_witnesses_validate():
    for g in (cycle(5), house(), complete(4), path(4), joined_double_pentagon()):
        p = graph_parameters(g)
        assert is_clique(g, p.max_clique_witness) and len(p.max_clique_witness) == p.omega
        assert is_stable(g, p.max_stable_witness) and len(p.max_stable_witness) == p.alpha
        assert is_valid_coloring(g, p.chi_witness)
        assert len(colors_used(g, p.chi_witness)) == p.chi
        assert p.omega <= p.chi


def test_graph_parameters_checks_itself_under_python_O():
    out = run_optimized(
        "import sys\n"
        "from pgl import invariants, make_graph\n"
        "assert False\n"
        "invariants._chromatic = lambda adj, n, lower: (lower - 1, [0] * n)\n"
        "try:\n"
        "    invariants.graph_parameters(make_graph([1, 2], [(1, 2)]))\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert out == "1 graph_parameters found chi=1 below omega=2\n"


def test_max_stable_sets_pentagon():
    assert max_stable_sets(cycle(5)) == ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))


def test_max_stable_sets_square_and_triangle():
    assert max_stable_sets(cycle(4)) == ((1, 3), (2, 4))
    assert max_stable_sets(complete(3)) == ((1,), (2,), (3,))


def test_is_nice_pentagon_and_replications():
    g1 = cycle(5)
    assert not is_nice(g1)
    g2, _ = replicate(g1, 4)
    assert is_nice(g2)
    g3, _ = replicate(g2, 2)
    assert not is_nice(g3)


def test_is_perfect_examples():
    assert is_perfect(house())
    assert not is_perfect(cycle(5))
    assert is_perfect(complete(5))
    assert is_perfect(path(5))
    assert is_perfect(edgeless(4))
    assert is_perfect(make_graph([]))


def test_imperfection_witness_is_the_odd_hole():
    g = cycle(5)
    assert imperfection_witness(g) == (1, 2, 3, 4, 5)
    assert imperfection_witness(house()) is None


def _least_subset_with_chi_above_omega(g):
    from pgl.oracles import _subset_tables

    om, ch = _subset_tables(g.bit_adjacency, g.n)
    bad = [m for m in range(1 << g.n) if ch[m] != om[m]]
    if not bad:
        return None
    least = min(bad, key=lambda m: (m.bit_count(), m))
    return tuple(v for i, v in enumerate(g.nodes) if least >> i & 1)


def test_imperfection_witness_is_the_least_subset_with_chi_above_omega():
    # Lovasz's alpha * omega bound must pick the same subset as the chi
    # table does, smallest first and then by mask.
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    graphs += [cycle(7), cycle(9), complement(cycle(7)), complement(cycle(9))]
    rng = random.Random(1972)
    for n in range(7, 13):
        for density in (0.2, 0.5, 0.8):
            for _ in range(8):
                pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
                graphs.append(make_graph(range(1, n + 1), [e for e in pairs if rng.random() < density]))
    for g in graphs:
        assert imperfection_witness(g) == _least_subset_with_chi_above_omega(g)


def test_perfection_cap():
    from pgl.invariants import PERFECTION_MAX_N

    halves = [(u, v) for u in range(10) for v in range(10, 20) if (u * v) % 3 != 1]
    assert PERFECTION_MAX_N == 20
    assert is_perfect(make_graph(range(20), halves))
    with pytest.raises(TooLargeError):
        is_perfect(edgeless(21))


def test_perfection_is_hereditary():
    g = house()
    for r in range(g.n + 1):
        from itertools import combinations

        for S in combinations(g.nodes, r):
            assert is_perfect(induced_subgraph(g, S))


def test_check_cover():
    assert check_cover(cycle(5), ((1, 3), (2, 4), (5,)), "stable")
    assert check_cover(cycle(4), ((1, 2), (3, 4)), "clique")
    assert not check_cover(cycle(5), ((1, 3), (2, 4)), "stable")
    with pytest.raises(ValueError):
        check_cover(cycle(4), (), "chromatic")


def test_coloring_to_cover():
    cover = coloring_to_cover(cycle(5), {1: 0, 2: 1, 3: 0, 4: 1, 5: 2})
    assert cover == ((1, 3), (2, 4), (5,))
    assert coloring_to_cover(complete(3), {1: 0, 2: 1, 3: 2}) == ((1,), (2,), (3,))
    assert coloring_to_cover(edgeless(2), {1: 7, 2: 7}) == ((1, 2),)
    with pytest.raises(InvalidColoringError):
        coloring_to_cover(cycle(5), {1: 0, 2: 0, 3: 1, 4: 0, 5: 1})


def test_cover_to_coloring_disjoint_uses_all_parts():
    g = cycle(5)
    coloring = cover_to_coloring(g, ((1, 3), (2, 4), (5,)))
    assert is_valid_coloring(g, coloring)
    assert colors_used(g, coloring) == (0, 1, 2)


def test_cover_to_coloring_overlapping_parts():
    g = cycle(4)
    coloring = cover_to_coloring(g, ((1, 3), (1, 3), (2, 4)))
    assert is_valid_coloring(g, coloring)
    assert len(colors_used(g, coloring)) == 2


def test_cover_to_coloring_singleton():
    g = make_graph([1])
    assert cover_to_coloring(g, ((1,),)) == {1: 0}


def test_cover_to_coloring_rejects_non_stable_cover():
    with pytest.raises(NotAStableCoverError):
        cover_to_coloring(cycle(4), ((1, 2), (3, 4)))


def test_optimal_coloring_round_trip():
    for g in (house(), cycle(5), path(4), complete(3)):
        p = graph_parameters(g)
        cover = coloring_to_cover(g, p.chi_witness)
        assert len(cover) == p.chi
        back = cover_to_coloring(g, cover)
        assert len(colors_used(g, back)) == p.chi


def test_stable_cover_never_smaller_than_omega():
    # Any stable cover of G has at least omega(G) parts.
    for g in (house(), cycle(5), complete(4), joined_double_pentagon()):
        p = graph_parameters(g)
        cover = coloring_to_cover(g, p.chi_witness)
        assert len(cover) >= p.omega


def test_subset_tables_match_per_subgraph_parameters():
    # The definitional perfection oracle computes omega/chi for all subsets
    # at once; it must agree with graph_parameters on each induced subgraph.
    from itertools import combinations

    from pgl import enumerate_graphs
    from pgl.oracles import _subset_tables

    for g in enumerate_graphs(4):
        om, ch = _subset_tables(g.bit_adjacency, g.n)
        for r in range(g.n + 1):
            for S in combinations(range(g.n), r):
                mask = sum(1 << i for i in S)
                sub = induced_subgraph(g, [g.nodes[i] for i in S])
                p = graph_parameters(sub)
                assert om[mask] == p.omega
                assert ch[mask] == p.chi


def test_every_stable_cover_has_at_least_omega_parts_exhaustively():
    # All families of distinct stable sets covering a graph on <= 3 vertices.
    from itertools import combinations

    from pgl import enumerate_graphs

    for g in enumerate_graphs(3):
        omega = graph_parameters(g).omega
        stables = [S for r in range(1, 4) for S in combinations(g.nodes, r) if is_stable(g, S)]
        for r in range(1, len(stables) + 1):
            for family in combinations(stables, r):
                if check_cover(g, family, "stable"):
                    assert len(family) >= omega


@given(st.integers(min_value=1, max_value=7))
def test_complete_graph_parameters(n):
    p = graph_parameters(complete(n))
    assert (p.alpha, p.omega, p.chi) == (1, n, n)


@given(st.integers(min_value=3, max_value=9))
def test_cycle_parameters(n):
    p = graph_parameters(cycle(n))
    expected_chi = 2 if n % 2 == 0 else 3
    expected_omega = 3 if n == 3 else 2
    assert p.omega == expected_omega
    assert p.chi == expected_chi
    assert p.alpha == n // 2
