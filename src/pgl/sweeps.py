"""Theorem sweeps over small-graph streams.

Each property check maps a graph to None (holds) or a piece of evidence
text; a sweep runs selected checks over a deterministic stream and
collects counterexamples, which are data rather than errors.  The
stream can be partitioned across worker processes; each worker
re-enumerates its slice, so reports merge deterministically by stream
index.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from typing import Callable, Sequence

from .constructions import build_separated_graph, expand, replicate, verify_expansion, verify_replication
from .core import Graph, make_graph, vertex_set
from .errors import TooLargeError
from .formats import relabel_graph
from .invariants import (
    PERFECTION_MAX_N,
    _breaks_bound,
    _walk,
    check_cover,
    clique_number,
    graph_parameters,
    imperfection_witness,
    is_clique,
    is_perfect,
    is_stable,
    max_clique_witness,
    stable_number,
)
from .iso import find_isomorphism
from .oracles import (
    _definition_levels,
    _max_stable_subsets,
    confirms_imperfection,
    enumerate_graphs,
    is_berge,
    oracle_parameters,
    stream_size,
)
from .pipeline import (
    CLIQUE_GAP,
    PerfectnessFailure,
    intersecting_clique,
    recheck_failure,
    verify_certificate,
    wpgt_certificate,
)

EXPANSION_MAX_MULTIPLICITY = 3


@dataclass(frozen=True)
class Counterexample:
    index: int
    graph: Graph
    prop: str
    evidence: str


@dataclass
class SweepReport:
    properties: tuple[str, ...]
    n: int
    mode: str
    graphs_checked: int
    counterexamples: list[Counterexample] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _check_wpgt(G: Graph) -> str | None:
    # By definition, not by is_perfect: Lovasz's alpha * omega bound is
    # symmetric under complement, which would make this check hold trivially.
    (omega, chi), (co_omega, co_chi) = _definition_levels(G)
    if (omega == chi) != (co_omega == co_chi):
        return "perfection of graph and complement disagree"
    return None


def _check_berge(G: Graph) -> str | None:
    if is_perfect(G) != is_berge(G):
        return "perfection by the alpha * omega bound disagrees with Berge recognition"
    return None


def _check_duality(G: Graph) -> str | None:
    # The complement is built from its definition: stable_number flips G's
    # rows with core._complement_rows, the helper core.complement uses, so
    # clique_number(complement(G)) would repeat the same computation.
    edges = set(G.edges)
    co = make_graph(G.nodes, [e for e in combinations(G.nodes, 2) if e not in edges])
    a = stable_number(G)
    w = clique_number(co)
    if a != w:
        return f"alpha={a} but complement omega={w}"
    return None


def _check_oracle_agreement(G: Graph) -> str | None:
    p = graph_parameters(G)
    q = oracle_parameters(G)
    if (p.alpha, p.omega, p.chi) != (q.alpha, q.omega, q.chi):
        return (
            f"parameters ({p.alpha},{p.omega},{p.chi}) "
            f"vs oracle ({q.alpha},{q.omega},{q.chi})"
        )
    return None


def _check_replication(G: Graph) -> str | None:
    # replicate puts the clone last and leaves G's rows below it, so the
    # walk of each replica H repeats G's walk vertex for vertex and then
    # takes one step for the clone.  G's tables are walked once, and each
    # replica is decided by that last step on its clone's row in H: on a
    # perfect G this is is_perfect(H), from the same tables.
    imperfect, _, _, tables = _walk(G, early=True, whole=True)
    for a in G.nodes:
        H, w = replicate(G, a)
        if not verify_replication(G, w, H):
            return f"replication witness rejected at vertex {a}"
        if not imperfect and _breaks_bound(tables, H.bit_adjacency[G.n]):
            return f"replicating vertex {a} broke perfection"
    return None


def _check_expansion(G: Graph) -> str | None:
    if not is_perfect(G):
        return None
    # Every expansion with multiplicities at most the all-max host's maps,
    # origin by origin, onto an induced subgraph of that host.  is_perfect
    # answers True only after its alpha * omega tables have checked every
    # vertex set of the host, and with it every vertex set of every such
    # expansion, so a perfect host settles them all and is the only one
    # built (expand checks it with verify_expansion).  This does not assume
    # that expansion preserves perfection: the host is decided from
    # scratch, so a host past the perfection cap is refused before anything
    # else is built.  When it is not perfect, the expansions are built and
    # decided in product order, whose last vector is the host's, so the
    # evidence names the first failing vector.
    top = (EXPANSION_MAX_MULTIPLICITY,) * G.n
    if is_perfect(expand(G, dict(zip(G.nodes, top)))[0]):
        return None
    for values in product(range(1, EXPANSION_MAX_MULTIPLICITY + 1), repeat=G.n):
        if not is_perfect(expand(G, dict(zip(G.nodes, values)))[0]):
            return f"expansion with multiplicities {values} broke perfection"
    return None


def _check_separation(G: Graph) -> str | None:
    if G.n == 0:
        return None
    sep = build_separated_graph(G)
    # An expansion's back map is onto the base and makes copies of one
    # origin adjacent, so the tag rule (such copies adjacent exactly when
    # their parts differ) can fail only on two copies in one part, which
    # the stability check below then rejects.
    if not verify_expansion(sep.base, sep.separated, sep.back):
        return "separated graph is not an expansion of the base"
    # Parts that cover the nodes overlap exactly when their sizes add up past n.
    if not check_cover(sep.separated, sep.disjoint_parts, "stable"):
        return "disjoint parts are not a stable cover of the separated graph"
    if sum(map(len, sep.disjoint_parts)) != sep.separated.n:
        return "disjoint parts overlap"
    # intersecting_clique lists stable sets as the parts do; the oracle does not.
    # A stable part holds one copy per origin, and an expansion keeps the
    # base's alpha, so these parts are then maximum stable sets of it too.
    images = sorted(sum(1 << G.index[sep.back[x]] for x in part) for part in sep.disjoint_parts)
    if images != _max_stable_subsets(G.bit_adjacency):
        return "disjoint parts are not the maximum stable sets of the base"
    # The pipeline searches G's bitmasks instead of this graph; the two
    # must agree on the least maximum clique and on the gap size.
    witness = max_clique_witness(sep.separated)
    required = len(sep.disjoint_parts)
    K = intersecting_clique(G)
    if len(witness) < required:
        if K != PerfectnessFailure(CLIQUE_GAP, G.nodes, len(witness), required):
            return f"intersecting clique {K} disagrees with a separated clique of size {len(witness)}"
    elif K != vertex_set(sep.back[x] for x in witness):
        return f"intersecting clique {K} is not the projection of the least maximum separated clique"
    return None


def _check_pipeline(G: Graph) -> str | None:
    # Every certificate must verify, and every failure must come from an
    # imperfect graph and re-check.  A certificate does not say G is
    # perfect, so on an imperfect graph the oracle confirms the witness.
    result = wpgt_certificate(G)
    if isinstance(result, PerfectnessFailure):
        if is_perfect(G):
            return "pipeline reported failure on a perfect graph"
        if not recheck_failure(G, result):
            return "failure evidence did not re-check"
        return None
    # verify_certificate checks alpha against its witness and cover, with no search.
    if not verify_certificate(G, result):
        return "certificate failed verification"
    S = imperfection_witness(G)
    if S is not None and not confirms_imperfection(G, S):
        return "oracle did not confirm imperfection"
    return None


def _relabeled_twin(G: Graph) -> Graph:
    """Copy of G on fresh ids with the vertex order reversed."""
    shift = G.nodes[-1] + 1 if G.n else 0
    return relabel_graph(G, {v: shift + (G.n - 1 - i) for i, v in enumerate(G.nodes)})


def _check_iso(G: Graph) -> str | None:
    H = _relabeled_twin(G)
    w = find_isomorphism(G, H)
    # find_isomorphism checks its witness with verify_iso_witness.
    if w is None:
        return "no witness found onto a relabeled copy"
    pg = graph_parameters(G)
    ph = graph_parameters(H)
    if (pg.alpha, pg.omega, pg.chi) != (ph.alpha, ph.omega, ph.chi):
        return "parameters not preserved by isomorphism"
    # Niceness, chi == omega, is settled by the triple above.
    if is_perfect(G) != is_perfect(H):
        return "perfection not preserved by isomorphism"
    if not is_clique(H, tuple(w.forward[v] for v in pg.max_clique_witness)):
        return "image of a maximum clique is not a clique"
    if not is_stable(H, tuple(w.forward[v] for v in pg.max_stable_witness)):
        return "image of a maximum stable set is not stable"
    return None


PROPERTIES: dict[str, Callable[[Graph], str | None]] = {
    "wpgt": _check_wpgt,
    "berge": _check_berge,
    "duality": _check_duality,
    "oracle-agreement": _check_oracle_agreement,
    "replication": _check_replication,
    "expansion": _check_expansion,
    "separation": _check_separation,
    "pipeline": _check_pipeline,
    "iso": _check_iso,
}


def _resolve(properties: str | Sequence[str]) -> tuple[str, ...]:
    # Repeats are dropped, keeping first-seen order.
    names = (properties,) if isinstance(properties, str) else tuple(dict.fromkeys(properties))
    if not names:
        raise ValueError(f"no property given; known: {sorted(PROPERTIES)}")
    for name in names:
        if name not in PROPERTIES:
            raise ValueError(f"unknown property {name!r}; known: {sorted(PROPERTIES)}")
    return names


def _run_slice(
    names: tuple[str, ...], n: int, mode: str, seed: int, count: int, start: int, stop: int
) -> list[Counterexample]:
    """Check one slice of the stream; returns its counterexamples."""
    out = []
    stream = islice(enumerate_graphs(n, mode, seed=seed, count=count), start, stop)
    for offset, G in enumerate(stream):
        for name in names:
            evidence = PROPERTIES[name](G)
            if evidence is not None:
                out.append(Counterexample(start + offset, G, name, evidence))
    return out


def _worker_count(jobs: int, cpus: int | None) -> int:
    """Worker processes for a requested --jobs: at least 1, at most the CPU count."""
    return max(1, min(jobs, cpus or 1))


def sweep(
    properties: str | Sequence[str],
    n: int,
    mode: str = "exhaustive",
    *,
    seed: int = 42,
    count: int = 1000,
    jobs: int = 1,
) -> SweepReport:
    """Run property checks over the graph stream and report counterexamples.

    jobs is clamped to the machine's CPU count.  An exhaustive stream past
    the EXHAUSTIVE_MAX_N cap raises TooLargeError before any graph is
    checked or any worker starts, and so does an expansion sweep whose
    all-max hosts, of EXPANSION_MAX_MULTIPLICITY * n vertices, would pass
    the perfection cap.
    """
    names = _resolve(properties)
    jobs = _worker_count(jobs, os.cpu_count())
    total = stream_size(n, mode, count)
    if "expansion" in names and EXPANSION_MAX_MULTIPLICITY * n > PERFECTION_MAX_N:
        raise TooLargeError(f"expansion sweep capped at {PERFECTION_MAX_N // EXPANSION_MAX_MULTIPLICITY} vertices")
    started = time.perf_counter()
    if jobs <= 1 or total < 2 * jobs:
        counterexamples = _run_slice(names, n, mode, seed, count, 0, total)
    else:
        # Imported here so that single-process sweeps and every other
        # command never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        counterexamples = []
        bounds = [(total * k // jobs, total * (k + 1) // jobs) for k in range(jobs)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_slice, names, n, mode, seed, count, lo, hi)
                for lo, hi in bounds
            ]
            for fut in futures:
                counterexamples.extend(fut.result())
    counterexamples.sort(key=lambda c: (c.index, c.prop))
    elapsed = time.perf_counter() - started
    return SweepReport(names, n, mode, total, counterexamples, elapsed)
