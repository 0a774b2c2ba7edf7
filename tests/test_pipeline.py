"""Intersecting cliques, size-alpha clique covers and certificates."""

import random
from dataclasses import replace

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
    induced_subgraph,
    intersecting_clique,
    is_clique,
    is_perfect,
    is_stable,
    is_valid_coloring,
    make_graph,
    max_clique_witness,
    max_stable_sets,
    max_stable_witness,
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
    # The rounds run on G's rows inside a live mask; the reference builds
    # each round's induced subgraph, so ids that are not 0..n-1 check that
    # a mask bit and a vertex id are never confused.
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    rng = random.Random(12)
    for n in (*range(7, 13), 13, 14):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            for k in range(8 if n < 13 else 3):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                ids = sorted(rng.sample(range(1, 5 * n, 2), n)) if k % 2 else range(n)
                graphs.append(make_graph(ids, [(ids[u], ids[v]) for u, v in edges]))
    failures = 0
    for g in graphs:
        cover = clique_cover_alpha(g)
        assert cover == _cover_searching_alpha_every_round(g)
        cert = wpgt_certificate(g)
        if isinstance(cover, PerfectnessFailure):
            assert cert == cover
            failures += 1
        else:
            assert cert.clique_cover == cover and cert.alpha == len(cover)
    assert failures > 0


def test_clique_cover_alpha_searches_alpha_once(monkeypatch):
    from pgl import pipeline

    handed = []
    masks = pipeline._max_stable_masks

    def recording(co, universe, alpha, limit=None):
        handed.append(alpha)
        return masks(co, universe, alpha, limit)

    monkeypatch.setattr(pipeline, "_max_stable_masks", recording)
    g = cycle(8)
    assert len(clique_cover_alpha(g)) == 4
    assert handed == [4, 3, 2, 1]


def test_wpgt_certificate_builds_no_graph_per_round(monkeypatch):
    # Every round reads G's own rows inside a live mask: no induced
    # subgraph, and the complement rows are built once, also for the
    # coloring self-check.
    import pgl.core
    from pgl import invariants, pipeline

    calls = []
    flip = pgl.core._complement_rows

    def counting(rows):
        calls.append(len(rows))
        return flip(rows)

    def induced(*args):
        raise AssertionError("the pipeline built an induced subgraph")

    for module in (pgl.core, invariants, pipeline):
        monkeypatch.setattr(module, "_complement_rows", counting, raising=False)
    monkeypatch.setattr(pgl.core, "induced_subgraph", induced)
    monkeypatch.setattr(pipeline, "induced_subgraph", induced)
    for g in (house(), cycle(6), path(5), complete(4), edgeless(3), make_graph(range(1, 20, 2), [(1, 3), (5, 9)])):
        calls.clear()
        cert = wpgt_certificate(g)
        assert isinstance(cert, WpgtCertificate) and len(cert.clique_cover) == cert.alpha
        assert calls == [g.n], g


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
    assert cert == WpgtCertificate(1, (1,), ((1,),), {1: 0})
    assert verify_certificate(g, cert)


def test_certificate_empty_graph():
    g = make_graph([])
    cert = wpgt_certificate(g)
    assert cert == WpgtCertificate(0, (), (), {})
    assert verify_certificate(g, cert)


def test_verify_certificate_rejects_mutations():
    g = house()
    cert = wpgt_certificate(g)
    not_a_clique = replace(cert, clique_cover=((1, 3), (2, 4, 5)))
    assert not verify_certificate(g, not_a_clique)
    wrong_size = replace(cert, alpha=3, clique_cover=cert.clique_cover + ((1,),))
    assert not verify_certificate(g, wrong_size)
    too_many_colors = replace(cert, complement_coloring={1: 0, 2: 1, 3: 2, 4: 1, 5: 0})
    assert not verify_certificate(g, too_many_colors)
    improper = replace(cert, complement_coloring={v: 0 for v in g.nodes})
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


def test_recheck_failure_rejects_forged_evidence():
    genuine = intersecting_clique(cycle(5))
    assert recheck_failure(cycle(5), genuine)
    # chromatic-gap is no longer a kind, so its evidence never re-checks.
    assert not recheck_failure(cycle(5), PerfectnessFailure("chromatic-gap", (1, 2, 3, 4, 5), 3, 2))
    assert not recheck_failure(cycle(5), PerfectnessFailure(genuine.kind, genuine.subgraph, 3, 5))
    assert not recheck_failure(cycle(5), PerfectnessFailure("clique-gap", (1, 2, 3, 4, 5), 5, 5))
    assert not recheck_failure(house(), PerfectnessFailure("clique-gap", (1, 2, 6), 1, 2))


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


def test_wpgt_certificate_searches_alpha_once(monkeypatch):
    from pgl import invariants, pipeline

    calls = []
    search = invariants._max_clique

    def counting(adj, universe):
        calls.append(universe)
        return search(adj, universe)

    monkeypatch.setattr(invariants, "_max_clique", counting)
    monkeypatch.setattr(pipeline, "_max_clique", counting)
    for g in (house(), cycle(6), path(5), complete(4), edgeless(3), cycle(5), make_graph([])):
        calls.clear()
        wpgt_certificate(g)
        assert len(calls) == 1, g


def test_the_witness_is_the_least_maximum_stable_set():
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            cert = wpgt_certificate(g)
            if isinstance(cert, WpgtCertificate):
                assert cert.stable_set == max_stable_witness(g)
                assert len(cert.stable_set) == cert.alpha == stable_number(g)


def _tampers(G, cert):
    """(fault, certificate) for each tamper that applies to an honest certificate."""
    S, cover, f = cert.stable_set, cert.clique_cover, cert.complement_coloring
    yield "alpha + 1", replace(cert, alpha=cert.alpha + 1)
    yield "alpha - 1", replace(cert, alpha=cert.alpha - 1)
    if S:
        yield "vertex outside", replace(cert, stable_set=S[:-1] + (G.nodes[-1] + 1,))
        yield "a vertex short", replace(cert, stable_set=S[:-1])
    if len(S) >= 2:
        yield "repeated vertex", replace(cert, stable_set=S[:-1] + (S[0],))
        # A maximum stable set is maximal, so every vertex off it has a
        # neighbor u on it; trading another member for that vertex makes an edge.
        for v in G.nodes:
            if v not in S:
                u = next(u for u in S if G.bit_adjacency[G.index[u]] >> G.index[v] & 1)
                w = next(w for w in S if w != u)
                yield "edge inside", replace(cert, stable_set=tuple(x for x in S if x != w) + (v,))
                break
        # Each part holds one vertex of S, so another part's is not adjacent to it.
        t = next(t for t in S if t not in cover[0])
        yield "cover part not a clique", replace(cert, clique_cover=(cover[0] + (t,),) + cover[1:])
    non_edges = complement(G).edges
    if non_edges:
        u, v = non_edges[0]
        yield "improper coloring", replace(cert, complement_coloring={**f, u: f[v]})
    shared = [v for v in G.nodes if sum(c == f[v] for c in f.values()) >= 2]
    if shared:
        yield "alpha + 1 colors", replace(cert, complement_coloring={**f, shared[0]: cert.alpha})
    if f:
        yield "colored vertex outside", replace(cert, complement_coloring={**f, G.nodes[-1] + 1: 0})


TAMPERS = {
    "alpha + 1", "alpha - 1", "vertex outside", "a vertex short", "repeated vertex", "edge inside",
    "cover part not a clique", "improper coloring", "alpha + 1 colors", "colored vertex outside",
}


def test_verify_certificate_rejects_every_tamper_of_the_house():
    g = house()
    cert = wpgt_certificate(g)
    assert cert.stable_set == (1, 3)
    tampered = dict(_tampers(g, cert))
    assert set(tampered) == TAMPERS
    for fault, forged in tampered.items():
        assert not verify_certificate(g, forged), fault
    # is_stable reads its argument as a set, so the repeat needs its own check.
    assert tampered["repeated vertex"].stable_set == (1, 1)
    assert is_stable(g, (1, 1))
    # Colors only name the classes, so negative ones are as good as any.
    f = cert.complement_coloring
    assert verify_certificate(g, replace(cert, complement_coloring={v: -1 - c for v, c in f.items()}))


def test_a_bool_id_is_refused_wherever_the_certificate_names_a_vertex():
    # True equals vertex 1, and a coloring keyed by it used to be read as vertex 1.
    g = house()
    cert = wpgt_certificate(g)
    f = cert.complement_coloring
    assert cert.stable_set == (1, 3) and 1 in f
    for forged in (
        replace(cert, stable_set=(True, 3)),
        replace(cert, clique_cover=tuple(tuple(True if v == 1 else v for v in part) for part in cert.clique_cover)),
        replace(cert, complement_coloring={(True if v == 1 else v): c for v, c in f.items()}),
    ):
        with pytest.raises(ValueError, match="vertex ids must be non-negative integers, got True"):
            verify_certificate(g, forged)
    # A coloring key that is no node of G is rejected before it is read as an id.
    for key in (-1, "1"):
        assert not verify_certificate(g, replace(cert, complement_coloring={**f, key: 0}))


def _no_search_families():
    """Seeded perfect graphs: matchings, interval, bipartite, split and co-bipartite, n <= 20."""
    rng = random.Random(16)
    for n in (2, 5, 8, 12, 16, 20):
        yield make_graph(range(n), [(u, u + 1) for u in range(0, n - 1, 2)])
        spans = [(a, a + rng.uniform(0, 4)) for a in (rng.uniform(0, n) for _ in range(n))]
        yield make_graph(range(n), [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
        ])
        half = n // 2
        bipartite = make_graph(range(n), [(u, v) for u in range(half) for v in range(half, n) if rng.random() < 0.4])
        yield bipartite
        yield complement(bipartite)
        clique = [(u, v) for u in range(half) for v in range(u + 1, half)]
        yield make_graph(range(n), clique + [(u, v) for u in range(half) for v in range(half, n) if rng.random() < 0.5])


def test_verify_certificate_runs_no_search(monkeypatch):
    from pgl import core, invariants, pipeline

    graphs = list(_no_search_families())
    certs = [wpgt_certificate(g) for g in graphs]
    assert all(isinstance(cert, WpgtCertificate) for cert in certs)

    def searched(*args, **kwargs):
        raise AssertionError("verify_certificate ran a search")

    for name in ("_max_clique", "_max_stable_masks", "_chromatic", "_try_color", "_walk"):
        monkeypatch.setattr(invariants, name, searched)
    for name in ("_max_clique", "_max_stable_masks"):
        monkeypatch.setattr(pipeline, name, searched)
    # A proper coloring of the complement is checked as cliques of G.
    monkeypatch.setattr(core, "complement", searched)
    monkeypatch.setattr(pipeline, "complement", searched, raising=False)
    faults = set()
    for g, cert in zip(graphs, certs):
        assert verify_certificate(g, cert)
        for fault, forged in _tampers(g, cert):
            assert not verify_certificate(g, forged), (g, fault)
            faults.add(fault)
    assert faults == TAMPERS


def _verdict_searching_alpha(G, cert):
    """verify_certificate as it was before certificates carried a stable set."""
    if len(cert.clique_cover) != cert.alpha:
        return False
    if any(len(set(part)) != len(part) for part in cert.clique_cover):
        return False
    if not check_cover(G, cert.clique_cover, "clique"):
        return False
    if cert.complement_coloring.keys() != set(G.nodes):
        return False
    if stable_number(G) != cert.alpha:
        return False
    comp = complement(G)
    if not is_valid_coloring(comp, cert.complement_coloring):
        return False
    return len(colors_used(comp, cert.complement_coloring)) == cert.alpha


def _honest_stable_set_tampers(G, cert):
    """Tampers of alpha, the cover and the coloring; the stable set stays honest."""
    yield from ((fault, forged) for fault, forged in _tampers(G, cert) if forged.stable_set == cert.stable_set)
    cover, f = cert.clique_cover, cert.complement_coloring
    yield "negative colors", replace(cert, complement_coloring={v: -1 - c for v, c in f.items()})
    yield "merged parts", replace(cert, alpha=cert.alpha - 1, clique_cover=(sum(cover[:2], ()),) + cover[2:])
    if cover:
        yield "extra part", replace(cert, alpha=cert.alpha + 1, clique_cover=cover + ((G.nodes[0],),))
        yield "repeat in a part", replace(cert, clique_cover=(cover[0] + cover[0][:1],) + cover[1:])
        yield "dropped part", replace(cert, clique_cover=cover[1:])
        yield "uncolored vertex", replace(cert, complement_coloring={v: c for v, c in f.items() if v != G.nodes[0]})
    yield "one color", replace(cert, complement_coloring={v: 0 for v in G.nodes})


def test_verdicts_match_the_check_that_searched_alpha():
    graphs = [g for n in range(6) for g in enumerate_graphs(n)]
    graphs += list(enumerate_graphs(6, "random", seed=16, count=300))
    graphs += list(enumerate_graphs(8, "random", seed=17, count=100))
    cases = accepted = 0
    for g in graphs:
        cert = wpgt_certificate(g)
        if isinstance(cert, PerfectnessFailure):
            continue
        for fault, forged in [("honest", cert), *_honest_stable_set_tampers(g, cert)]:
            cases += 1
            verdict = verify_certificate(g, forged)
            assert verdict == _verdict_searching_alpha(g, forged), (g, fault)
            accepted += verdict
    assert cases > 5000 and accepted > 1000
