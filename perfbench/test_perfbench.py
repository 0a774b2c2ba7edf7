"""Self-tests of the pgl benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pgl  # noqa: E402
import pgl.cli  # noqa: E402

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _sample_ops(tmp_path: Path) -> list[corpus.Op]:
    """A few cheap ops of every workload."""
    analyze = corpus.build("analyze", 3, str(tmp_path / "analyze"))
    certify = corpus.build("certify", 3, str(tmp_path / "certify"))
    sweep = corpus.build("sweep", 3, str(tmp_path / "sweep"))
    small = [op for op in analyze if op.graph.n <= 10][:12]
    cheap = [op for op in certify if op.graph.n <= 12][:12]
    return small + cheap + [op for op in sweep if op.name in ("wpgt-0", "pipeline-0")]


def _bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "pgl" or name.startswith("pgl.")
        for attr, value in vars(module).items()
    }


def test_same_seed_gives_byte_identical_corpus(tmp_path):
    for workload in ("analyze", "certify"):
        first, second, other = (tmp_path / f"{workload}-{k}" for k in "abc")
        corpus.build(workload, 5, str(first))
        corpus.build(workload, 5, str(second))
        corpus.build(workload, 6, str(other))
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second)) and names
        match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert (mismatch, errors) == ([], [])
        _, differ, _ = filecmp.cmpfiles(first, other, names, shallow=False)
        assert differ, "another seed should draw other graphs"
    assert corpus.sweep_seeds(5, 3) == corpus.sweep_seeds(5, 3) != corpus.sweep_seeds(6, 3)


def test_traced_pass_leaves_stdout_byte_identical(tmp_path):
    ops = _sample_ops(tmp_path)
    _, _, plain = run.run_pass(pgl.cli, ops)
    t = tracer.Tracer()
    t.install()
    try:
        raw, _, traced = run.run_pass(pgl.cli, ops, tracer=t)
    finally:
        t.uninstall()
    assert traced == plain
    assert all(checks.check(op, res) is None for op, res in zip(ops, plain))
    summary = t.summary()
    assert summary["cli.calls"] == sum(len(r.codes) for r in plain)
    assert summary["oracles.graphs_generated"] == summary["sweeps.graphs_checked"] == 380
    roots = [k for k in range(len(t.ids) // 4) if t.ids[4 * k + 1] == -1]
    root_time = sum(t.times[2 * k + 1] - t.times[2 * k] for k in roots)
    layer_time = sum(summary[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert abs(root_time - layer_time) < 1e-6 * max(1.0, root_time) + 1e-9
    assert root_time <= sum(raw)


def test_every_wrapped_binding_is_restored():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert pgl.cli.is_perfect.__wrapped__ is pgl.is_perfect.__wrapped__
        assert pgl.sweeps.enumerate_graphs.__wrapped__ is pgl.oracles.enumerate_graphs.__wrapped__
        assert _bindings() != before
    finally:
        t.uninstall()
    assert _bindings() == before
    assert not hasattr(pgl.invariants.is_perfect, "__wrapped__")


class _TamperingCli:
    """Stands in for pgl.cli and corrupts every certificate certify writes."""

    def run_command(self, argv):
        code = pgl.cli.run_command(argv)
        if argv[0] == "certify" and code == 0:
            path = argv[argv.index("--out") + 1]
            with open(path, encoding="ascii") as handle:
                doc = json.load(handle)
            coloring = doc["complement_coloring"]
            for v in coloring:
                coloring[v] = 0
            with open(path, "w", encoding="ascii") as handle:
                json.dump(doc, handle)
        return code


def test_tampered_certificate_makes_error_rate_positive(tmp_path):
    ops = [op for op in corpus.build("certify", 2, str(tmp_path)) if op.name in ("matching-k5", "hole-c5")]
    tally = run.Tally(None)
    _, _, results = run.run_pass(pgl.cli, ops)
    tally.add(ops, results)
    assert (tally.attempted, tally.failed) == (2, 0)
    _, _, results = run.run_pass(_TamperingCli(), ops)
    tally.add(ops, results)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
    tampered = results[0]
    assert tampered.codes == (0, 1)
    assert checks.check_certificate(ops[0].graph, tampered.cert_text) is not None


def test_pinned_analyze_lines_cover_the_default_corpus(tmp_path):
    pinned = json.loads(run.PINNED.read_text(encoding="ascii"))
    ops = corpus.build("analyze", run.DEFAULT_SEED, str(tmp_path))
    assert sorted(pinned) == sorted(op.name for op in ops)
    op = next(op for op in ops if op.name == "hole-c5")
    _, result = run.run_op(pgl.cli, op)
    assert checks.check(op, result, pinned) is None
    assert checks.check(op, result, {**pinned, "hole-c5": "alpha=2\n"}) is not None


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracer.METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(corpus.WORKLOADS)
    assert doc["paths"] == [HERE.name]
