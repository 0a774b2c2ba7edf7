"""Acceptance suite.

One test per acceptance criterion, each asserting the exact expected
values/tolerances and its runtime budget, and printing a single
PASS line (run pytest -s to see them while the suite is green).
"""

import time
from itertools import islice

from pgl import (
    PerfectnessFailure,
    complement,
    emit_graph,
    enumerate_graphs,
    find_isomorphism,
    graph_parameters,
    is_nice,
    is_perfect,
    parse_graph,
    relabel_graph,
    replicate,
    sweep,
    verify_certificate,
    wpgt_certificate,
)
from pgl.cli import run_command

from conftest import cycle, house, joined_double_pentagon, path


def _report(number: int, budget: float, started: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {number:2d}: PASS ({elapsed:6.2f}s < {budget:g}s) {detail}")


def test_criterion_01_pentagon_parameters(tmp_path, capsys):
    started = time.perf_counter()
    g6 = tmp_path / "c5.g6"
    g6.write_text(emit_graph(cycle(5), "graph6").payload + "\n")
    assert run_command(["analyze", "--in", str(g6)]) == 0
    out = capsys.readouterr().out
    assert "omega=2" in out and "chi=3" in out
    p = graph_parameters(cycle(5))
    assert (p.omega, p.chi) == (2, 3)
    with capsys.disabled():
        _report(1, 1.0, started, "pentagon: omega=2 chi=3")


def test_criterion_02_chromatic_gap_construction(capsys):
    started = time.perf_counter()
    p = graph_parameters(joined_double_pentagon())
    assert (p.chi, p.omega) == (6, 4)
    with capsys.disabled():
        _report(2, 5.0, started, "joined double pentagon: chi=6 omega=4")


def test_criterion_03_replication_niceness_flip(capsys):
    started = time.perf_counter()
    g2, _ = replicate(cycle(5), 4)
    assert is_nice(g2)
    g3, _ = replicate(g2, 2)
    assert not is_nice(g3)
    p = graph_parameters(g3)
    assert p.chi > p.omega
    with capsys.disabled():
        _report(3, 1.0, started, "replicated pentagon nice, twice-replicated not")


def test_criterion_04_house_graph(capsys):
    started = time.perf_counter()
    g = house()
    assert is_perfect(g)
    witness = find_isomorphism(complement(g), path(5))
    assert witness is not None
    cert = wpgt_certificate(g)
    assert not isinstance(cert, PerfectnessFailure)
    assert verify_certificate(g, cert)
    with capsys.disabled():
        _report(4, 1.0, started, "house perfect, complement ~ path, certificate verifies")


def test_criterion_05_wpgt_sweep(capsys):
    started = time.perf_counter()
    r5 = sweep("wpgt", 5)
    assert r5.graphs_checked == 1024 and r5.ok
    r6 = sweep("wpgt", 6)
    assert r6.graphs_checked == 32768 and r6.ok
    r7 = sweep("wpgt", 7, "random", seed=42, count=1000)
    assert r7.graphs_checked == 1000 and r7.ok
    with capsys.disabled():
        _report(5, 300.0, started, "perfect(G) <=> perfect(complement): 1024+32768+1000 graphs")


def test_criterion_06_replication_lemma_sweep(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(1, 6):
        report = sweep("replication", n)
        assert report.ok
        total += report.graphs_checked
    with capsys.disabled():
        _report(6, 300.0, started, f"replication preserves perfection: {total} graphs, all vertices")


def test_criterion_07_generalized_replication_sweep(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(1, 6):
        report = sweep("expansion", n)
        assert report.ok
        total += report.graphs_checked
    assert total == 1099
    with capsys.disabled():
        _report(7, 600.0, started, f"expansions with multiplicities 1..3 stay perfect: {total} base graphs, n <= 5")


def test_criterion_08_separation_invariants(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(1, 6):
        report = sweep("separation", n)
        assert report.ok
        total += report.graphs_checked
    with capsys.disabled():
        _report(8, 300.0, started, f"separation invariants on {total} graphs")


def test_criterion_09_pipeline_soundness(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(0, 7):
        report = sweep("pipeline", n)
        assert report.ok
        total += report.graphs_checked
    with capsys.disabled():
        _report(9, 600.0, started, f"pipeline sound on {total} graphs (covers + negative evidence)")


def test_criterion_10_spgt_cross_oracle(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(0, 7):
        report = sweep("berge", n)
        assert report.ok
        total += report.graphs_checked
    r7 = sweep("berge", 7, "random", seed=42, count=500)
    assert r7.ok
    total += r7.graphs_checked
    with capsys.disabled():
        _report(10, 900.0, started, f"perfect <=> Berge on {total} graphs")


def test_criterion_11_oracle_agreement(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(0, 7):
        report = sweep("oracle-agreement", n)
        assert report.ok
        total += report.graphs_checked
    with capsys.disabled():
        _report(11, 900.0, started, f"parameters match subset-enumeration oracle on {total} graphs")


def test_criterion_12_duality(capsys):
    started = time.perf_counter()
    total = 0
    for n in range(0, 7):
        report = sweep("duality", n)
        assert report.ok
        total += report.graphs_checked
    with capsys.disabled():
        _report(12, 900.0, started, f"alpha(G) = omega(complement) on {total} graphs")


def test_criterion_13_format_round_trip(capsys):
    started = time.perf_counter()
    corpus = []
    for n in range(0, 6):
        corpus.extend(enumerate_graphs(n))
    corpus.extend(islice(enumerate_graphs(6), 9000))
    assert len(corpus) >= 10000
    for g in corpus:
        for fmt in ("graph6", "dimacs", "edgelist"):
            doc = emit_graph(g, fmt)
            expected = relabel_graph(g, doc.relabeling) if doc.relabeling else g
            assert parse_graph(doc) == expected
            if fmt == "graph6":
                assert emit_graph(g, fmt).payload == doc.payload
    with capsys.disabled():
        _report(13, 900.0, started, f"parse/emit identity on {len(corpus)} graphs x 3 formats")
