"""Sweep harness: property registry, determinism, worker merging."""

from itertools import islice, product

import pytest

from pgl import enumerate_graphs, expand, is_induced_subgraph, is_perfect, make_graph, sweep, verify_expansion
from pgl.sweeps import EXPANSION_MAX_MULTIPLICITY, PROPERTIES, _check_expansion

from conftest import cycle, run_fresh


def test_property_registry_names():
    assert set(PROPERTIES) == {
        "wpgt",
        "berge",
        "duality",
        "oracle-agreement",
        "replication",
        "expansion",
        "separation",
        "pipeline",
        "iso",
    }


def test_wpgt_sweep_on_four_vertices():
    report = sweep("wpgt", 4)
    assert report.graphs_checked == 64
    assert report.ok


def test_multiple_properties_in_one_pass():
    report = sweep(("duality", "oracle-agreement"), 4)
    assert report.ok
    assert report.properties == ("duality", "oracle-agreement")


def test_replication_sweep_small():
    assert sweep("replication", 4).ok


def test_expansion_sweep_small():
    assert sweep("expansion", 3).ok


def test_separation_and_pipeline_sweeps_small():
    assert sweep("separation", 4).ok
    assert sweep("pipeline", 4).ok


def test_iso_sweep_small():
    assert sweep("iso", 4).ok


def test_berge_sweep_on_five_vertices_sees_pentagons():
    # All 1024 graphs, including the 12 labeled five-cycles, agree.
    report = sweep("berge", 5)
    assert report.graphs_checked == 1024
    assert report.ok


def test_random_mode_sweep():
    report = sweep("duality", 6, "random", seed=7, count=25)
    assert report.graphs_checked == 25
    assert report.mode == "random"
    assert report.ok


def test_parallel_sweep_matches_sequential():
    seq = sweep("wpgt", 4, jobs=1)
    par = sweep("wpgt", 4, jobs=2)
    assert seq.graphs_checked == par.graphs_checked
    assert [c.index for c in seq.counterexamples] == [c.index for c in par.counterexamples]


def test_worker_count_is_clamped_to_the_cpus():
    from pgl.sweeps import _worker_count

    assert _worker_count(64, 2) == 2
    assert _worker_count(2, 8) == 2
    assert _worker_count(1, 8) == 1
    assert _worker_count(0, 8) == 1
    assert _worker_count(-3, 8) == 1
    assert _worker_count(4, None) == 1


def test_exhaustive_sweep_past_the_cap_raises_before_any_work():
    from pgl import TooLargeError

    for jobs in (1, 2):
        with pytest.raises(TooLargeError, match="exhaustive enumeration capped at 6 vertices"):
            sweep("duality", 7, jobs=jobs)
    assert sweep("duality", 7, "random", count=3).graphs_checked == 3


def test_exhaustive_sweep_past_the_cap_raises_before_it_counts_the_stream():
    # The count 1 << n(n-1)/2 alone is a 100 MB int at n = 40,000.
    out = run_fresh(
        "import resource\n"
        "from pgl import TooLargeError, sweep\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    sweep('duality', 40_000)\n"
        "except TooLargeError as exc:\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, exc)\n"
    )
    grown_kib, message = out.rstrip("\n").split(" ", 1)
    assert message == "exhaustive enumeration capped at 6 vertices"
    assert int(grown_kib) < 5 * 1024


def test_unknown_property_rejected():
    with pytest.raises(ValueError):
        sweep("spgt-proof", 3)


def test_counterexamples_are_reported_for_a_false_property():
    from pgl.sweeps import SweepReport, _resolve

    with pytest.raises(ValueError):
        _resolve(("wpgt", "bogus"))
    report = sweep("wpgt", 3)
    assert isinstance(report, SweepReport)
    assert report.elapsed >= 0.0


def test_counterexamples_refail_when_rerun(monkeypatch):
    # A deliberately false claim: no graph on 3 vertices has all three edges.
    def no_triangle(G):
        return "triangle present" if G.m == 3 else None

    monkeypatch.setitem(PROPERTIES, "no-triangle", no_triangle)
    report = sweep("no-triangle", 3)
    assert len(report.counterexamples) == 1
    cex = report.counterexamples[0]
    assert cex.index == 7 and cex.prop == "no-triangle"
    # Re-running the property on the recorded graph reproduces the evidence.
    assert PROPERTIES["no-triangle"](cex.graph) == cex.evidence


def test_duality_sweep_catches_a_faulty_complement(monkeypatch):
    # A complement that loses the pair of the first two vertices: the
    # duality check must build its complement some other way to see it.
    import pgl.core
    import pgl.invariants

    flip = pgl.core._complement_rows

    def lossy(rows):
        out = list(flip(rows))
        if len(out) > 1:
            out[0] &= ~2
            out[1] &= ~1
        return tuple(out)

    monkeypatch.setattr(pgl.core, "_complement_rows", lossy)
    monkeypatch.setattr(pgl.invariants, "_complement_rows", lossy)
    assert sweep("duality", 5).counterexamples


def test_an_empty_property_list_is_rejected():
    from pgl.sweeps import _resolve

    with pytest.raises(ValueError, match="no property given"):
        _resolve(())
    with pytest.raises(ValueError, match="no property given"):
        sweep([], 3)


def _host_embedding_graphs():
    for n in range(4):
        yield from enumerate_graphs(n)
    yield from islice(enumerate_graphs(4), 0, 64, 9)
    yield cycle(5)


def test_every_bounded_expansion_is_an_induced_subgraph_of_the_host():
    top = EXPANSION_MAX_MULTIPLICITY
    for G in _host_embedding_graphs():
        host, hw = expand(G, {v: top for v in G.nodes})
        host_copy = {tag: x for x, tag in hw.origin_tags.items()}
        for values in product(range(1, top + 1), repeat=G.n):
            H, w = expand(G, dict(zip(G.nodes, values)))
            to_host = {x: host_copy[w.origin_tags[x]] for x in H.nodes}
            image = make_graph(to_host.values(), [(to_host[u], to_host[v]) for u, v in H.edges])
            assert image.n == H.n and image.m == H.m
            assert is_induced_subgraph(image, host), (G, values)


def _expansion_evidence_per_vector(G, perfect, verify):
    """The expansion check as it was before the host walk: one walk per vector."""
    if not perfect(G):
        return None
    for values in product(range(1, EXPANSION_MAX_MULTIPLICITY + 1), repeat=G.n):
        mult = dict(zip(G.nodes, values))
        H, w = expand(G, mult)
        if not verify(G, H, w.back):
            return f"expansion checker rejected multiplicities {values}"
        if not perfect(H):
            return f"expansion with multiplicities {values} broke perfection"
    return None


@pytest.mark.parametrize("perfect_up_to", [5, 9, 13])
def test_expansion_evidence_matches_the_per_vector_walk(monkeypatch, perfect_up_to):
    def perfect(G):
        return G.n <= perfect_up_to and is_perfect(G)

    monkeypatch.setattr("pgl.sweeps.is_perfect", perfect)
    found = set()
    for G in enumerate_graphs(4):
        expected = _expansion_evidence_per_vector(G, perfect, verify_expansion)
        assert _check_expansion(G) == expected, G
        found.add(expected)
    # Past 12 vertices the all-3 host passes, so every graph holds.
    assert (found == {None}) == (perfect_up_to >= 12)


def test_expansion_evidence_matches_when_the_checker_rejects_large_expansions(monkeypatch):
    def verify(G, H, back):
        return H.n <= 9 and verify_expansion(G, H, back)

    monkeypatch.setattr("pgl.sweeps.verify_expansion", verify)
    for G in enumerate_graphs(4):
        expected = _expansion_evidence_per_vector(G, is_perfect, verify)
        assert expected is not None and "checker rejected" in expected
        assert _check_expansion(G) == expected


def test_repeated_properties_are_checked_once_in_first_seen_order(monkeypatch):
    from pgl.sweeps import _resolve

    assert _resolve(("duality", "wpgt", "duality", "wpgt", "berge")) == ("duality", "wpgt", "berge")
    seen = []
    monkeypatch.setitem(PROPERTIES, "count", lambda G: seen.append(G.edges))
    report = sweep(("count", "wpgt", "count"), 3)
    assert report.properties == ("count", "wpgt")
    assert len(seen) == report.graphs_checked == 8


def _pairwise_tag_evidence(sep):
    """The separation sweep's tag-rule loop with one adjacency test per pair of node ids."""
    tags = {x: (sep.back[x], i) for i, part in enumerate(sep.disjoint_parts) for x in part}
    for i, x in enumerate(sep.separated.nodes):
        for y in sep.separated.nodes[i + 1 :]:
            ox, ix = tags[x]
            oy, iy = tags[y]
            if ox == oy:
                if sep.separated.adjacent(x, y) != (ix != iy):
                    return f"equal-origin copies {x},{y} break the tag rule"
            elif sep.base.adjacent(ox, oy) != sep.separated.adjacent(x, y):
                return f"distinct-origin adjacency mismatch at {x},{y}"
    return None


def test_separation_tag_evidence_matches_the_pairwise_loop(monkeypatch):
    import random

    from pgl import build_separated_graph, sweeps

    rng = random.Random(1972)
    seen = set()
    for g in enumerate_graphs(6, "random", seed=11, count=400):
        sep = build_separated_graph(g)
        h = sep.separated
        if h.n < 2:
            continue
        x, y = rng.sample(h.nodes, 2)
        flipped = make_graph(h.nodes, set(h.edges) ^ {(min(x, y), max(x, y))})
        for candidate in (sep, sep._replace(separated=flipped)):
            expected = _pairwise_tag_evidence(candidate)
            monkeypatch.setattr(sweeps, "build_separated_graph", lambda G, s=candidate: s)
            assert sweeps._check_separation(g) == expected
            seen.add(None if expected is None else expected.split()[0])
    assert seen == {None, "equal-origin", "distinct-origin"}
