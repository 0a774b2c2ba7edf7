"""Sweep harness: property registry, determinism, worker merging."""

import pytest

from pgl import sweep
from pgl.sweeps import PROPERTIES


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
