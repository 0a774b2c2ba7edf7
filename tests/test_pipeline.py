"""Intersecting cliques, size-alpha clique covers and certificates."""

import random

import pytest

from pgl import (
    EmptyGraphError,
    build_separated_graph,
    clique_number,
    enumerate_graphs,
    PerfectnessFailure,
    WpgtCertificate,
    check_cover,
    chromatic_number,
    clique_cover_alpha,
    colors_used,
    complement,
    graph_parameters,
    imperfection_failure,
    induced_subgraph,
    intersecting_clique,
    is_clique,
    is_perfect,
    is_valid_coloring,
    make_graph,
    max_clique_witness,
    max_stable_sets,
    recheck_failure,
    stable_number,
    vertex_set,
    verify_certificate,
    wpgt_certificate,
)

from conftest import complete, cycle, edgeless, house, path


def test_intersecting_clique_of_square():
    K = intersecting_clique(cycle(4))
    assert K == (1, 2)
    for stable in max_stable_sets(cycle(4)):
        assert set(K) & set(stable)


def test_intersecting_clique_of_triangle():
    assert intersecting_clique(complete(3)) == (1, 2, 3)


def test_intersecting_clique_pentagon_fails():
    failure = intersecting_clique(cycle(5))
    assert isinstance(failure, PerfectnessFailure)
    assert failure.kind == "clique-gap"
    assert (failure.found, failure.required) == (4, 5)
    assert recheck_failure(cycle(5), failure)


def test_intersecting_clique_matches_the_separated_graph_exhaustively():
    # The search never builds the separated graph; it must still return
    # the projection of that graph's least maximum clique, or its gap.
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            sep = build_separated_graph(g)
            result = intersecting_clique(g)
            if isinstance(result, PerfectnessFailure):
                assert result.found == clique_number(sep.separated)
                assert result.required == len(sep.disjoint_parts)
                assert result.found < result.required
            else:
                witness = max_clique_witness(sep.separated)
                assert result == vertex_set(sep.back[x] for x in witness)


def test_intersecting_clique_requires_nonempty():
    with pytest.raises(EmptyGraphError):
        intersecting_clique(make_graph([]))


def test_intersecting_clique_meets_every_maximum_stable_set():
    for g in (house(), cycle(4), complete(4), path(5), edgeless(3)):
        K = intersecting_clique(g)
        assert not isinstance(K, PerfectnessFailure)
        assert is_clique(g, K)
        for stable in max_stable_sets(g):
            # A clique and a stable set share at most one vertex.
            assert len(set(K) & set(stable)) == 1


def test_alpha_drops_by_one_after_removing_the_clique():
    for g in (house(), cycle(4), path(5), complete(4)):
        K = intersecting_clique(g)
        rest = induced_subgraph(g, tuple(v for v in g.nodes if v not in set(K)))
        assert stable_number(rest) == stable_number(g) - 1


def test_clique_cover_alpha_examples():
    assert clique_cover_alpha(cycle(4)) == ((1, 2), (3, 4))
    assert clique_cover_alpha(house()) == ((1, 5), (2, 3, 4))
    assert clique_cover_alpha(edgeless(3)) == ((1,), (2,), (3,))
    assert clique_cover_alpha(make_graph([])) == ()


def test_clique_cover_alpha_properties():
    for g in (house(), cycle(4), cycle(6), path(5), complete(4), edgeless(3)):
        cover = clique_cover_alpha(g)
        assert not isinstance(cover, PerfectnessFailure)
        assert len(cover) == stable_number(g)
        assert check_cover(g, cover, "clique")


def test_clique_cover_alpha_propagates_failure():
    failure = clique_cover_alpha(cycle(5))
    assert isinstance(failure, PerfectnessFailure)
    assert recheck_failure(cycle(5), failure)


def _cover_searching_alpha_every_round(G):
    """clique_cover_alpha as it was before the stable number was handed down."""
    parts = []
    H = G
    while H.n:
        K = intersecting_clique(H)
        if isinstance(K, PerfectnessFailure):
            return K
        parts.append(K)
        H = induced_subgraph(H, tuple(v for v in H.nodes if v not in set(K)))
    return tuple(parts)


def test_handing_alpha_down_keeps_every_cover_and_failure():
    # Removing a clique that meets every maximum stable set lowers alpha
    # by exactly one, perfect or not, so the covers and failures agree.
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    rng = random.Random(12)
    for n in range(7, 13):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(8):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                graphs.append(make_graph(range(n), edges))
    failures = 0
    for g in graphs:
        cover = clique_cover_alpha(g)
        assert cover == _cover_searching_alpha_every_round(g)
        failures += isinstance(cover, PerfectnessFailure)
    assert failures > 0


def test_clique_cover_alpha_searches_alpha_once(monkeypatch):
    from pgl import pipeline

    handed = []
    masks = pipeline._max_stable_masks

    def recording(adj, n, alpha=None):
        handed.append(alpha)
        return masks(adj, n, alpha)

    monkeypatch.setattr(pipeline, "_max_stable_masks", recording)
    g = cycle(8)
    assert len(clique_cover_alpha(g)) == 4
    assert handed == [4, 3, 2, 1]


def test_certificate_house():
    cert = wpgt_certificate(house())
    assert isinstance(cert, WpgtCertificate)
    assert cert.alpha == 2
    assert len(cert.clique_cover) == 2
    comp = complement(house())
    assert is_valid_coloring(comp, cert.complement_coloring)
    assert colors_used(comp, cert.complement_coloring) == (0, 1)
    assert verify_certificate(house(), cert)


def test_certificate_path_complement_is_self():
    g = path(4)
    cert = wpgt_certificate(g)
    assert isinstance(cert, WpgtCertificate)
    assert cert.alpha == 2
    assert len(colors_used(complement(g), cert.complement_coloring)) == 2
    assert verify_certificate(g, cert)


def test_certificate_single_vertex():
    g = make_graph([1])
    cert = wpgt_certificate(g)
    assert cert == WpgtCertificate(1, ((1,),), {1: 0})
    assert verify_certificate(g, cert)


def test_certificate_empty_graph():
    g = make_graph([])
    cert = wpgt_certificate(g)
    assert cert == WpgtCertificate(0, (), {})
    assert verify_certificate(g, cert)


def test_verify_certificate_rejects_mutations():
    g = house()
    cert = wpgt_certificate(g)
    not_a_clique = WpgtCertificate(2, ((1, 3), (2, 4, 5)), cert.complement_coloring)
    assert not verify_certificate(g, not_a_clique)
    wrong_size = WpgtCertificate(3, cert.clique_cover + ((1,),), cert.complement_coloring)
    assert not verify_certificate(g, wrong_size)
    too_many_colors = WpgtCertificate(
        2, cert.clique_cover, {1: 0, 2: 1, 3: 2, 4: 1, 5: 0}
    )
    assert not verify_certificate(g, too_many_colors)
    improper = WpgtCertificate(2, cert.clique_cover, {v: 0 for v in g.nodes})
    assert not verify_certificate(g, improper)


def test_chromatic_number_of_separated_graph_matches_part_count():
    from pgl import build_separated_graph

    for g in (house(), cycle(4), path(4), complete(3)):
        sep = build_separated_graph(g)
        assert chromatic_number(sep.separated) == len(sep.disjoint_parts)


def test_perfect_matchings_certify_past_the_separated_graph_reach():
    # The separated graph of a k-edge matching has k * 2^k vertices.
    for k in (10, 12):
        g = make_graph(range(2 * k), [(2 * i, 2 * i + 1) for i in range(k)])
        cert = wpgt_certificate(g)
        assert isinstance(cert, WpgtCertificate)
        assert cert.alpha == k
        assert verify_certificate(g, cert)


def test_imperfection_failure_round_trip():
    failure = imperfection_failure(cycle(5))
    assert failure is not None
    assert failure.kind == "chromatic-gap"
    assert failure.subgraph == (1, 2, 3, 4, 5)
    assert (failure.found, failure.required) == (3, 2)
    assert recheck_failure(cycle(5), failure)
    assert imperfection_failure(house()) is None


def test_imperfection_failure_breaks_ties_by_mask_past_the_subset_tables():
    # Two disjoint five-cycles on 13 vertices: {0,1,2,3,12} comes first in
    # combinations order, but {4,...,8} has the smaller mask.
    first = [(0, 1), (1, 2), (2, 3), (3, 12), (12, 0)]
    second = [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)]
    g = make_graph(range(13), first + second)
    failure = imperfection_failure(g)
    assert failure == PerfectnessFailure("chromatic-gap", (4, 5, 6, 7, 8), 3, 2)
    assert recheck_failure(g, failure)


def test_recheck_failure_rejects_forged_evidence():
    genuine = imperfection_failure(cycle(5))
    assert not recheck_failure(house(), PerfectnessFailure("chromatic-gap", (1, 2, 3), 3, 2))
    assert not recheck_failure(cycle(5), PerfectnessFailure(genuine.kind, genuine.subgraph, 4, 2))
    assert not recheck_failure(cycle(5), PerfectnessFailure("clique-gap", (1, 2, 3, 4, 5), 5, 5))


def test_end_to_end_on_perfect_graph_complements():
    for g in (house(), path(5), cycle(6), complete(4)):
        assert is_perfect(g) and is_perfect(complement(g))
        cert = wpgt_certificate(g)
        assert verify_certificate(g, cert)
        # The certificate coloring is an optimal coloring of the complement.
        comp = complement(g)
        assert len(colors_used(comp, cert.complement_coloring)) == graph_parameters(comp).chi


def test_stable_cover_of_size_omega_makes_the_complement_nice():
    # Feeding a pipeline cover back through cover_to_coloring colors the
    # complement with exactly omega(complement) colors, so it is nice.
    from pgl import clique_number, cover_to_coloring, is_nice

    for g in (house(), path(4), cycle(6), complete(3), edgeless(3)):
        cover = wpgt_certificate(g).clique_cover
        comp = complement(g)
        assert len(cover) == clique_number(comp)
        coloring = cover_to_coloring(comp, cover)
        assert len(colors_used(comp, coloring)) == clique_number(comp)
        assert is_nice(comp)
