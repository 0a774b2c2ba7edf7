"""Sweep harness: property registry, determinism, worker merging."""

import multiprocessing
import random
from concurrent import futures
from dataclasses import replace
from functools import partial
from itertools import combinations, islice, permutations, product

import pytest

from pgl import (
    PerfectnessFailure,
    build_separated_graph,
    clique_number,
    enumerate_graphs,
    expand,
    intersecting_clique,
    is_induced_subgraph,
    is_perfect,
    is_stable,
    make_graph,
    max_clique_witness,
    replicate,
    stable_number,
    sweep,
    union_over,
    verify_expansion,
    vertex_set,
    wpgt_certificate,
)
from pgl.pipeline import CLIQUE_GAP
from pgl.sweeps import EXPANSION_MAX_MULTIPLICITY, PROPERTIES, Counterexample, _check_expansion, _check_replication

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


def test_replication_check_matches_a_walk_per_replica_on_six_vertices(monkeypatch):
    from pgl import sweeps
    from pgl.invariants import _walk

    replicas = 0
    for G in enumerate_graphs(6):
        violating, _, _, tables = _walk(G, early=True, whole=True)
        assert (not violating) == is_perfect(G), G
        if violating:
            continue
        for a in G.nodes:
            H, _ = replicate(G, a)
            assert sweeps._breaks_bound(tables, H.bit_adjacency[G.n]) == (not is_perfect(H)), (G, a)
            replicas += 1
    assert replicas > 6 * 30_000
    # A replica that broke perfection would be reported at its vertex.
    monkeypatch.setattr(sweeps, "_breaks_bound", lambda tables, row: row == 0b10101)
    G = make_graph(range(1, 7), [(1, 3), (1, 5)])
    assert _check_replication(G) == "replicating vertex 1 broke perfection"


def test_expansion_sweep_small():
    assert sweep("expansion", 3).ok


def test_separation_and_pipeline_sweeps_small():
    assert sweep("separation", 4).ok
    assert sweep("pipeline", 4).ok


def test_separation_sweep_refuses_past_the_subset_cap():
    # The oracle side of the check keeps one bit per vertex subset.
    from pgl import TooLargeError
    from pgl.oracles import ORACLE_MAX_N

    assert sweep("separation", ORACLE_MAX_N, "random", count=1).ok
    with pytest.raises(TooLargeError, match=f"subset enumeration capped at {ORACLE_MAX_N} vertices"):
        sweep("separation", ORACLE_MAX_N + 1, "random", count=1)


def test_wpgt_and_oracle_agreement_sweeps_run_at_the_subset_cap():
    # Both read the chi levels, which one vertex cap bounds.
    from pgl import TooLargeError
    from pgl.oracles import ORACLE_MAX_N

    assert sweep(("wpgt", "oracle-agreement"), ORACLE_MAX_N, "random", count=3).ok
    for prop in ("wpgt", "oracle-agreement"):
        with pytest.raises(TooLargeError, match=f"subset enumeration capped at {ORACLE_MAX_N} vertices"):
            sweep(prop, ORACLE_MAX_N + 1, "random", count=1)


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


def test_parallel_sweep_matches_sequential(monkeypatch):
    # Two deliberately false claims, so that both reports have something to
    # merge.  Workers are forked, whatever the default start method, so that
    # they see the patched registry.
    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(futures, "ProcessPoolExecutor", partial(futures.ProcessPoolExecutor, mp_context=fork))
    monkeypatch.setitem(PROPERTIES, "triangle-free", lambda G: "triangle" if clique_number(G) > 2 else None)
    monkeypatch.setitem(PROPERTIES, "edgeless", lambda G: f"{G.m} edges" if G.m else None)
    seq = sweep(("triangle-free", "edgeless"), 4, jobs=1)
    par = sweep(("triangle-free", "edgeless"), 4, jobs=2)
    assert seq.graphs_checked == par.graphs_checked == 64
    assert len(seq.counterexamples) > 64
    assert seq.counterexamples == par.counterexamples
    assert all(isinstance(c, Counterexample) for c in par.counterexamples)
    # The workers' graphs come back whole: same hash, repr and index, still immutable.
    for mine, theirs in zip(seq.counterexamples, par.counterexamples):
        g = theirs.graph
        assert hash(g) == hash(mine.graph) and repr(g) == repr(mine.graph) and g.index == mine.graph.index
        with pytest.raises(AttributeError):
            del g.bit_adjacency


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


def test_oracle_agreement_sweep_catches_a_faulty_stable_set_indicator(monkeypatch):
    # alpha, omega and chi come off this one indicator, which the
    # separation and wpgt sweeps read too: a fault in it must show against
    # invariants.  With chi read off it as well, 358 of the 1,024 graphs
    # show it (288 when chi came from a coloring walk of the rows).
    import pgl.oracles

    indicator = pgl.oracles._stable_indicator

    def blind_to_the_last_pair(rows, clear):
        out = list(rows)
        if len(out) > 1:
            out[-2] &= ~(1 << len(out) - 1)
            out[-1] &= ~(1 << len(out) - 2)
        return indicator(out, clear)

    monkeypatch.setattr(pgl.oracles, "_stable_indicator", blind_to_the_last_pair)
    assert len(sweep("oracle-agreement", 5).counterexamples) == 358


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


def _expansion_evidence_per_vector(G, perfect):
    """The expansion check as it was before the host walk: one walk per vector."""
    if not perfect(G):
        return None
    for values in product(range(1, EXPANSION_MAX_MULTIPLICITY + 1), repeat=G.n):
        H, _ = expand(G, dict(zip(G.nodes, values)))
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
        expected = _expansion_evidence_per_vector(G, perfect)
        assert _check_expansion(G) == expected, G
        found.add(expected)
    # Past 12 vertices the all-3 host passes, so every graph holds.
    assert (found == {None}) == (perfect_up_to >= 12)


def test_expansion_check_builds_and_checks_each_expansion_once(monkeypatch):
    import pgl.constructions
    from pgl import sweeps

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(sweeps, "expand", counted("expand", expand))
    monkeypatch.setattr(sweeps, "verify_expansion", counted("verify", verify_expansion))
    monkeypatch.setattr(pgl.constructions, "verify_expansion", counted("verify", verify_expansion))
    perfect = [G for G in enumerate_graphs(4) if is_perfect(G)]
    assert perfect
    for G in perfect:
        calls.clear()
        assert _check_expansion(G) is None
        # The perfect all-3 host settles every smaller expansion, so it is
        # the only one built, and only expand checks it.
        assert calls == ["expand", "verify"], G


def test_expansion_check_refuses_a_host_past_the_cap_after_one_expand(monkeypatch):
    from pgl import TooLargeError, sweeps
    from pgl.invariants import PERFECTION_MAX_N

    calls = []

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(sweeps, "expand", counted)
    # A path on k vertices whose all-3 host, of 3k vertices, is past the cap.
    k = PERFECTION_MAX_N // 3 + 1
    G = make_graph(range(k), [(u, u + 1) for u in range(k - 1)])
    assert is_perfect(G)
    # Nothing else is built before the host is refused.
    with pytest.raises(TooLargeError, match=f"perfection check capped at {PERFECTION_MAX_N} vertices"):
        _check_expansion(G)
    assert len(calls) == 1


def test_expansion_sweep_past_its_cap_raises_before_any_check(monkeypatch):
    # A random stream at n = 7 used to fail at its first perfect graph,
    # whose all-3 host has 21 vertices, after checking the graphs before it.
    from pgl import TooLargeError
    from pgl.invariants import PERFECTION_MAX_N

    cap = PERFECTION_MAX_N // EXPANSION_MAX_MULTIPLICITY
    assert cap == 6
    called = []
    for name in ("berge", "expansion"):
        monkeypatch.setitem(PROPERTIES, name, called.append)

    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", no_workers)
    for jobs in (1, 2):
        with pytest.raises(TooLargeError, match=f"^expansion sweep capped at {cap} vertices$"):
            sweep(("berge", "expansion"), cap + 1, "random", seed=3, count=20, jobs=jobs)
    assert called == []
    # The other properties are not bound by it.
    assert sweep("berge", cap + 1, "random", seed=3, count=20).graphs_checked == 20
    assert len(called) == 20


def test_expansion_sweep_runs_at_its_cap_and_at_the_benchmark_size():
    assert sweep(("berge", "expansion"), 6, "random", seed=3, count=20).ok
    report = sweep("expansion", 4)
    assert report.graphs_checked == 64 and report.ok


def test_repeated_properties_are_checked_once_in_first_seen_order(monkeypatch):
    from pgl.sweeps import _resolve

    assert _resolve(("duality", "wpgt", "duality", "wpgt", "berge")) == ("duality", "wpgt", "berge")
    seen = []
    monkeypatch.setitem(PROPERTIES, "count", lambda G: seen.append(G.edges))
    report = sweep(("count", "wpgt", "count"), 3)
    assert report.properties == ("count", "wpgt")
    assert len(seen) == report.graphs_checked == 8


def _separation_evidence_with_the_tag_loop(G, sep):
    """The separation check as it was before the tag-rule loop was dropped, on a given separation."""
    if G.n == 0:
        return None
    if vertex_set(sep.back[x] for x in sep.separated.nodes) != sep.base.nodes:
        return "backward image of separated nodes misses the base nodes"
    tags = {x: (sep.back[x], i) for i, part in enumerate(sep.disjoint_parts) for x in part}
    nodes, rows = sep.separated.nodes, sep.separated.bit_adjacency
    base_index, base_rows = sep.base.index, sep.base.bit_adjacency
    tagged = [(base_index[tags[x][0]], tags[x][1]) for x in nodes]
    for i, (ox, ix) in enumerate(tagged):
        row = rows[i]
        for j in range(i + 1, len(nodes)):
            oy, iy = tagged[j]
            edge = row >> j & 1 == 1
            if ox == oy:
                if edge != (ix != iy):
                    return f"equal-origin copies {nodes[i]},{nodes[j]} break the tag rule"
            elif base_rows[ox] >> oy & 1 != edge:
                return f"distinct-origin adjacency mismatch at {nodes[i]},{nodes[j]}"
    if not verify_expansion(sep.base, sep.separated, sep.back):
        return "separated graph is not an expansion of the base"
    seen = set()
    for part in sep.disjoint_parts:
        if seen & set(part):
            return "disjoint parts overlap"
        seen |= set(part)
    if union_over(sep.disjoint_parts) != sep.separated.nodes:
        return "disjoint parts do not cover the separated graph"
    alpha = stable_number(sep.separated)
    for part in sep.disjoint_parts:
        if not is_stable(sep.separated, part):
            return "a disjoint part is not stable in the separated graph"
        if len(part) != alpha:
            return "a disjoint part is not a maximum stable set of the separated graph"
    witness = max_clique_witness(sep.separated)
    required = len(sep.disjoint_parts)
    K = intersecting_clique(G)
    if len(witness) < required:
        if K != PerfectnessFailure(CLIQUE_GAP, G.nodes, len(witness), required):
            return f"intersecting clique {K} disagrees with a separated clique of size {len(witness)}"
    elif K != vertex_set(sep.back[x] for x in witness):
        return f"intersecting clique {K} is not the projection of the least maximum separated clique"
    return None


def _separation_mutants(sep, rng):
    """(kind, separation) for each of six faults that applies to sep."""
    h, back, parts = sep.separated, sep.back, sep.disjoint_parts
    if h.n >= 2:
        x, y = rng.sample(h.nodes, 2)
        flipped = make_graph(h.nodes, set(h.edges) ^ {(min(x, y), max(x, y))})
        yield "flipped pair", sep._replace(separated=flipped)
    x = rng.choice(h.nodes)
    others = [o for o in sep.base.nodes if o != back[x]]
    if others:
        yield "wrong back value", sep._replace(back={**back, x: rng.choice(others)})
    pairs = [(x, y) for x, y in combinations(h.nodes, 2) if back[x] != back[y]]
    if pairs:
        x, y = rng.choice(pairs)
        yield "swapped back values", sep._replace(back={**back, x: back[y], y: back[x]})
    if len(parts) >= 2:
        i, j = rng.sample(range(len(parts)), 2)
        x = rng.choice(parts[i])
        moved = list(parts)
        moved[i] = tuple(v for v in parts[i] if v != x)
        moved[j] = vertex_set(parts[j] + (x,))
        yield "moved copy", sep._replace(disjoint_parts=tuple(moved))
        # Two parts trade copies so that one holds two copies of an origin
        # at the right size: only the stability check sees it.
        trades = [
            (i, j, x, y)
            for i, j in permutations(range(len(parts)), 2)
            for x in parts[i]
            for y in parts[j]
            if back[x] != back[y] and back[x] in {back[z] for z in parts[j]}
        ]
        if trades:
            i, j, x, y = rng.choice(trades)
            traded = list(parts)
            traded[i] = vertex_set(v for v in parts[i] + (y,) if v != x)
            traded[j] = vertex_set(v for v in parts[j] + (x,) if v != y)
            yield "traded copies", sep._replace(disjoint_parts=tuple(traded))
    touched = [x for x in h.nodes if h.degree(x)]
    if touched:
        x = rng.choice(touched)
        isolated = make_graph(h.nodes, [e for e in h.edges if x not in e])
        yield "isolated copy", sep._replace(separated=isolated)


def _separation_gate_graphs():
    for n in range(6):
        yield from enumerate_graphs(n)
    yield from enumerate_graphs(6, "random", seed=11, count=300)
    yield from enumerate_graphs(7, "random", seed=12, count=200)


_NOT_THE_STABLE_SETS = "disjoint parts are not the maximum stable sets of the base"


def test_separation_verdicts_match_the_check_with_the_tag_loop(monkeypatch):
    from pgl import sweeps

    # The check now also counts the parts against the oracle's stable sets,
    # so it rejects more: a back map that relabels copies can keep every
    # other test passing while the parts' images miss a maximum stable set.
    rng = random.Random(1972)
    disagreements, caught, reported, cases = [], [], set(), 0
    for G in _separation_gate_graphs():
        if G.n == 0:
            assert sweeps._check_separation(G) is None
            continue
        sep = build_separated_graph(G)
        for kind, candidate in [("intact", sep), *_separation_mutants(sep, rng)]:
            cases += 1
            before = _separation_evidence_with_the_tag_loop(G, candidate)
            monkeypatch.setattr(sweeps, "build_separated_graph", lambda _, s=candidate: s)
            after = sweeps._check_separation(G)
            if kind != "intact" and before is None and after == _NOT_THE_STABLE_SETS:
                caught.append(kind)
            elif (before is None) != (after is None):
                disagreements.append((G, kind, before, after))
            if after is not None:
                reported.add(kind)
    assert cases > 8000
    assert disagreements == []
    assert set(caught) == {"wrong back value", "swapped back values"}
    assert reported == {
        "flipped pair", "wrong back value", "swapped back values", "moved copy", "traded copies", "isolated copy"
    }


def test_pipeline_sweep_reports_a_cover_one_part_too_large(monkeypatch):
    from pgl import sweeps

    def padded(G):
        cert = wpgt_certificate(G)
        return replace(cert, alpha=cert.alpha + 1, clique_cover=cert.clique_cover + ((G.nodes[0],),))

    monkeypatch.setattr(sweeps, "wpgt_certificate", padded)
    graphs = [G for n in range(1, 5) for G in enumerate_graphs(n)]
    assert len(graphs) == 75 and all(is_perfect(G) for G in graphs)
    assert {sweeps._check_pipeline(G) for G in graphs} == {"certificate failed verification"}


def test_pipeline_sweep_verifies_certificates_of_imperfect_graphs(monkeypatch):
    from pgl import sweeps

    def one_color_when_imperfect(G):
        cert = wpgt_certificate(G)
        if isinstance(cert, PerfectnessFailure) or is_perfect(G):
            return cert
        return replace(cert, complement_coloring={v: 0 for v in G.nodes})

    graphs = list(enumerate_graphs(7, "random", seed=5, count=60))
    certified_imperfect = [
        G for G in graphs if not is_perfect(G) and not isinstance(wpgt_certificate(G), PerfectnessFailure)
    ]
    assert certified_imperfect
    monkeypatch.setattr(sweeps, "wpgt_certificate", one_color_when_imperfect)
    assert {sweeps._check_pipeline(G) for G in certified_imperfect} == {"certificate failed verification"}
    report = sweep("pipeline", 7, "random", seed=5, count=60)
    assert [c.graph for c in report.counterexamples] == certified_imperfect


def test_iso_check_verifies_each_witness_once(monkeypatch):
    import pgl.iso
    from pgl import sweeps

    calls = []
    check = pgl.iso.verify_iso_witness

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(pgl.iso, "verify_iso_witness", counting)
    monkeypatch.setattr(sweeps, "verify_iso_witness", counting, raising=False)
    for G in enumerate_graphs(4):
        calls.clear()
        assert sweeps._check_iso(G) is None
        assert len(calls) == 1, G


def _drops_the_last_of_many(listing):
    """A faulty _max_stable_masks that loses its last set whenever more than four exist."""

    def faulty(co, universe, alpha, limit=None):
        out = listing(co, universe, alpha, limit)
        return out[:-1] if len(out) > 4 else out

    return faulty


def test_separation_sweep_counts_the_parts_against_the_oracle(monkeypatch):
    # The separated graph and intersecting_clique read one listing, so a
    # listing that drops a set keeps them in agreement; only the oracle's
    # independent enumeration of the stable sets can see it.
    import pgl.invariants
    import pgl.pipeline

    faulty = _drops_the_last_of_many(pgl.invariants._max_stable_masks)
    monkeypatch.setattr(pgl.invariants, "_max_stable_masks", faulty)
    monkeypatch.setattr(pgl.pipeline, "_max_stable_masks", faulty)
    report = sweep("separation", 5)
    assert len(report.counterexamples) == 83
    assert {c.evidence for c in report.counterexamples} == {_NOT_THE_STABLE_SETS}
