"""Each exponential routine refuses one past its fixed cap, before it searches."""

import hashlib
import time
from itertools import combinations

import pytest

from pgl import (
    TooLargeError,
    build_separated_graph,
    enumerate_graphs,
    expand,
    find_odd_hole_or_antihole,
    imperfection_witness,
    is_perfect,
    make_graph,
    max_stable_sets,
    oracle_parameters,
)
from pgl.constructions import SEPARATION_MAX_VERTICES
from pgl.invariants import PERFECTION_MAX_N
from pgl.oracles import (
    EXHAUSTIVE_MAX_N,
    ORACLE_MAX_N,
    is_perfect_by_definition,
    stream_size,
)

from conftest import SealedTable


def _disjoint_cliques(sizes):
    """Disjoint cliques: prod(sizes) maximum stable sets, each of size len(sizes)."""
    edges, first = [], 0
    for size in sizes:
        edges += combinations(range(first, first + size), 2)
        first += size
    return make_graph(range(first), edges)


def _matching(k):
    """k disjoint edges: 2^k maximum stable sets of size k."""
    return make_graph(range(2 * k), [(2 * i, 2 * i + 1) for i in range(k)])


# (routine, the call one past its cap, the step it must not reach, message)
CAPS = [
    (
        "oracle_parameters",
        lambda: oracle_parameters(make_graph(range(ORACLE_MAX_N + 1))),
        "pgl.oracles._stable_indicator",
        f"subset enumeration capped at {ORACLE_MAX_N} vertices",
    ),
    (
        "find_odd_hole_or_antihole",
        lambda: find_odd_hole_or_antihole(make_graph(range(ORACLE_MAX_N + 1))),
        "pgl.oracles._subset_masks",
        f"subset enumeration capped at {ORACLE_MAX_N} vertices",
    ),
    (
        "enumerate_graphs",
        lambda: next(enumerate_graphs(EXHAUSTIVE_MAX_N + 1)),
        "pgl.oracles.graph_from_mask",
        "exhaustive enumeration capped at 6 vertices",
    ),
    (
        "stream_size",
        lambda: stream_size(EXHAUSTIVE_MAX_N + 1, "exhaustive"),
        "pgl.oracles.graph_from_mask",
        "exhaustive enumeration capped at 6 vertices",
    ),
    (
        "is_perfect_by_definition",
        lambda: is_perfect_by_definition(make_graph(range(ORACLE_MAX_N + 1))),
        "pgl.oracles._subset_masks",
        f"subset enumeration capped at {ORACLE_MAX_N} vertices",
    ),
    (
        "is_perfect",
        lambda: is_perfect(make_graph(range(PERFECTION_MAX_N + 1))),
        "pgl.invariants._grown",
        f"perfection check capped at {PERFECTION_MAX_N} vertices",
    ),
    (
        "imperfection_witness",
        lambda: imperfection_witness(make_graph(range(PERFECTION_MAX_N + 1))),
        "pgl.invariants._grown",
        f"perfection check capped at {PERFECTION_MAX_N} vertices",
    ),
    (
        # 29 * 113 = 3,277 maximum stable sets of size 5: 16,385 copies.
        "build_separated_graph",
        lambda: build_separated_graph(_disjoint_cliques([29, 113, 1, 1, 1])),
        "pgl.constructions._copy_rows",
        "separated graph capped at 16384 vertices",
    ),
    (
        "expand",
        lambda: expand(make_graph([1, 2]), {1: 1, 2: SEPARATION_MAX_VERTICES}),
        "pgl.constructions._copy_rows",
        "expansion capped at 16384 vertices",
    ),
]


@pytest.mark.parametrize("call, search, message", [c[1:] for c in CAPS], ids=[c[0] for c in CAPS])
def test_one_past_each_cap_is_refused_before_any_search(monkeypatch, call, search, message):
    def started(*args, **kwargs):
        raise AssertionError(f"{search} ran past the cap")

    monkeypatch.setattr(search, started)
    with pytest.raises(TooLargeError) as exc:
        call()
    assert str(exc.value) == message


def test_a_walk_past_the_perfection_cap_neither_reads_nor_fills_the_prefix_table(monkeypatch):
    from pgl import invariants

    monkeypatch.setattr(invariants, "_PREFIXES", SealedTable())
    with pytest.raises(AssertionError, match="^the prefix table was used$"):
        is_perfect(make_graph(range(PERFECTION_MAX_N)))
    for check in (is_perfect, imperfection_witness):
        with pytest.raises(TooLargeError, match=f"^perfection check capped at {PERFECTION_MAX_N} vertices$"):
            check(make_graph(range(PERFECTION_MAX_N + 1)))


def test_the_cheap_searches_run_at_their_cap():
    assert find_odd_hole_or_antihole(make_graph(range(ORACLE_MAX_N))) is None
    assert next(enumerate_graphs(EXHAUSTIVE_MAX_N)).n == EXHAUSTIVE_MAX_N
    assert stream_size(EXHAUSTIVE_MAX_N, "exhaustive") == 32_768


@pytest.mark.parametrize("sizes", [[3] * 6 + [2], [2] * 10], ids=["6K3+K2", "10K2"])
def test_the_subset_enumerations_answer_many_maximal_stable_sets_at_their_cap(sizes):
    # Six triangles and an edge have 1,458 maximal stable sets, ten edges
    # 1,024; each is masked out of the previous chi level in turn.  Isolated
    # vertices fill a cap past 20 and keep those counts.
    g = _disjoint_cliques(sizes + [1] * (ORACLE_MAX_N - sum(sizes)))
    assert g.n == ORACLE_MAX_N
    started = time.perf_counter()
    p = oracle_parameters(g)
    assert time.perf_counter() - started < 2.0
    assert (p.alpha, p.omega, p.chi) == (len(sizes) + ORACLE_MAX_N - sum(sizes), max(sizes), max(sizes))
    started = time.perf_counter()
    assert is_perfect_by_definition(g)
    assert time.perf_counter() - started < 2.0


def test_expansion_at_its_cap_is_built_whole():
    H, _ = expand(make_graph([1, 2]), {1: 1, 2: SEPARATION_MAX_VERTICES - 1})
    assert H.n == SEPARATION_MAX_VERTICES


def test_separation_cap_counts_copies_not_vertices():
    assert SEPARATION_MAX_VERTICES == 16_384
    # Ten edges give 10 * 2^10 = 10,240 copies; twelve would give 49,152.
    assert build_separated_graph(_matching(10)).separated.n == 10_240
    started = time.perf_counter()
    with pytest.raises(TooLargeError, match="separated graph capped at 16384 vertices"):
        build_separated_graph(_matching(12))
    assert time.perf_counter() - started < 1.0


def test_separation_refuses_before_listing_every_stable_set():
    # Sixteen edges have 65,536 maximum stable sets; the listing stops at
    # 16,384 // 16 + 1 = 1,025 of them, once their copies pass the cap.
    started = time.perf_counter()
    with pytest.raises(TooLargeError, match="separated graph capped at 16384 vertices"):
        build_separated_graph(_matching(16))
    assert time.perf_counter() - started < 0.1


def test_separation_under_the_cap_is_built_whole():
    sep = build_separated_graph(_matching(10))
    assert sep.stable_sets == max_stable_sets(_matching(10))
    assert len(sep.stable_sets) == 1024
    # SHA-256 of the separation as built before the listing could stop early.
    text = repr((sep.base, sep.separated.bit_adjacency, sorted(sep.back.items()), sep.stable_sets, sep.disjoint_parts))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a46391e919483402ccb3c134c635007919b10876d3656e34e74bff83e2daab66"
    )
