"""pgl benchmark: the analyze, certify and sweep workloads, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {analyze,certify,sweep} --seed N --seconds S --trace {0,1}

The benchmark builds a seeded corpus of graph files (perfbench/corpus.py)
and drives the real CLI in-process through ``pgl.cli.run_command``: a
closed loop with one client, one process and ``--jobs 1``.  One pass runs
every op of the workload once; passes repeat until S seconds have gone,
and every answer of every pass is checked (perfbench/checks.py).

--trace 0 reports the end-to-end metrics with tracing off:
  total_s      median time of one pass (the sum of its op latencies);
  op_p50_ms    median op latency, pooled over all passes;
  op_p90_ms    90th percentile op latency, pooled over all passes;
  setup_s      median over fresh processes of importing pgl.cli plus
               building the corpus (perfbench/setup_probe.py);
  peak_rss_mb  peak resident set size of this process.
Times are scaled to a fixed machine speed (see "Machine speed" below).
The error rate is failed / attempted of the result line; the table
above it prints it with the quartiles, sample counts and unscaled times.

--trace 1 alternates untraced and traced passes (perfbench/tracer.py)
and reports the per-layer metrics: medians over traced passes for
times, exact per-pass counts, and trace.overhead_ratio.  The spans of
the last traced pass are written to .perfbench_out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from checks import OpResult  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 9
PINNED = HERE / "pinned_analyze.json"

END_TO_END = (
    ("total_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# ---------------------------------------------------------------------------
# Machine speed.  The machine this benchmark was built on changes speed by
# up to 2x, both within a second and over minutes, which medians over one
# run cannot remove.  A fixed reference workload is therefore timed between
# ops, at most REF_INTERVAL_S of op time apart, and each op's time is
# scaled by REF_NOMINAL_S over the mean of the two reference times around
# it: times are reported at one fixed machine speed.

REF_INTERVAL_S = 0.25
# Median time of reference_work() on the machine of the first baseline.
REF_NOMINAL_S = 0.015


def reference_work(rounds: int = 8) -> int:
    """Fixed pure-Python work from the standard library only: build a
    nine-subcommand argparse parser, parse a command line and dump a small
    JSON document, `rounds` times.  Across this machine's slow and fast
    phases its time moved by the same factor as pgl's ops (1.55x against
    1.52x), where a bitmask branch and bound moved by more."""
    size = 0
    for _ in range(rounds):
        parser = argparse.ArgumentParser(prog="reference")
        commands = parser.add_subparsers(dest="command", required=True)
        for name in ("a", "b", "c", "d", "e", "f", "g", "h", "i"):
            sub = commands.add_parser(name, help=f"command {name}")
            sub.add_argument("--in", dest="infile", default=None)
            sub.add_argument("--out", default=None)
            sub.add_argument("--format", choices=("graph6", "dimacs", "edgelist"), default=None)
        args = parser.parse_args(["a", "--in", "graph.g6", "--out", "cert.json"])
        size += len(json.dumps({"args": vars(args), "cover": [list(range(k)) for k in range(12)]}))
    return size


class Speed:
    """Reference times sampled between measured intervals."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self._sample()

    def _sample(self) -> None:
        started = perf_counter()
        reference_work()
        self._at = perf_counter()
        self.refs.append(self._at - started)

    def due(self) -> bool:
        return perf_counter() - self._at >= REF_INTERVAL_S

    def scale(self) -> float:
        """Sample again; times measured since the last sample, multiplied by
        the result, are at nominal speed."""
        self._sample()
        return 2 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1])


# ---------------------------------------------------------------------------
# Running ops.


def _invoke(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        # Looked up on each call, so that a traced pass goes through the wrapper.
        code = cli.run_command(list(argv))
    return code, out.getvalue()


def run_op(cli, op: corpus.Op) -> tuple[float, OpResult]:
    """Latency in seconds and outputs of one op."""
    if op.cert_path:
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.cert_path)
    started = perf_counter()
    try:
        code, out = _invoke(cli, op.argv)
        codes, outs = [code], [out]
        if op.kind == "certify" and code == 0:
            code, out = _invoke(cli, ("verify", "--in", op.graph_path, "--cert", op.cert_path))
            codes.append(code)
            outs.append(out)
    except Exception as exc:  # an exception is a failed op, not a failed run
        return perf_counter() - started, OpResult((), (), error=f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - started
    cert_text = None
    if op.kind == "certify" and codes[0] == 0:
        with contextlib.suppress(FileNotFoundError), open(op.cert_path, encoding="ascii") as handle:
            cert_text = handle.read()
    return elapsed, OpResult(tuple(codes), tuple(outs), cert_text)


def run_pass(cli, ops, speed: Speed | None = None, tracer=None):
    """Latencies, the same at nominal speed, and outputs of one pass over ops.

    Without a Speed the two lists of latencies are equal.
    """
    raw: list[float] = []
    scaled: list[float] = []
    results: list[OpResult] = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        elapsed, result = run_op(cli, op)
        raw.append(elapsed)
        results.append(result)
        if speed is None:
            scaled.append(elapsed)
        elif speed.due() or index == len(ops) - 1:
            scale = speed.scale()
            scaled += [x * scale for x in raw[len(scaled):]]
    return raw, scaled, results


class Tally:
    """Attempted and failed ops, with the first few reasons."""

    def __init__(self, pinned: dict[str, str] | None) -> None:
        self.pinned = pinned
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, ops, results, reference=None) -> None:
        """Check one pass; reference is an untraced pass the outputs must equal."""
        for i, (op, result) in enumerate(zip(ops, results)):
            reason = checks.check(op, result, self.pinned)
            if reason is None and reference is not None and result != reference[i]:
                reason = "output differs from the untraced pass"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{op.name}: {reason}")


# ---------------------------------------------------------------------------
# Measuring.


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds to import pgl.cli and build the corpus in fresh processes, at nominal speed."""
    probe = str(HERE / "setup_probe.py")
    speed = Speed()
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"probe-{i}"
        done = subprocess.run(
            [sys.executable, probe, workload, str(seed), str(target)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) * speed.scale())
        shutil.rmtree(target, ignore_errors=True)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def untraced_run(cli, ops, seconds: float, tally: Tally):
    """Pass times and pooled op latencies at nominal speed, raw pass times, and the Speed."""
    deadline = perf_counter() + seconds
    speed = Speed()
    totals: list[float] = []
    raw_totals: list[float] = []
    latencies: list[float] = []
    while True:
        raw, scaled, results = run_pass(cli, ops, speed)
        tally.add(ops, results)
        raw_totals.append(sum(raw))
        totals.append(sum(scaled))
        latencies += scaled
        if perf_counter() >= deadline:
            return totals, latencies, raw_totals, speed


def traced_run(cli, ops, seconds: float, tally: Tally, tracer):
    """Alternate untraced and traced passes.

    Returns the pass times of each kind and the traced passes' summaries,
    all at nominal speed, and the Speed.
    """
    deadline = perf_counter() + seconds
    speed = Speed()
    units = dict(tracing.METRICS)
    plain: list[float] = []
    traced: list[float] = []
    summaries: list[dict[str, float]] = []
    while True:
        _, scaled, reference = run_pass(cli, ops, speed)
        plain.append(sum(scaled))
        tally.add(ops, reference)
        tracer.reset()
        tracer.install()
        try:
            raw, scaled, results = run_pass(cli, ops, speed, tracer)
        finally:
            tracer.uninstall()
        scale = sum(scaled) / sum(raw)
        traced.append(sum(scaled))
        summaries.append({k: v * scale if units[k] == "s" else v for k, v in tracer.summary().items()})
        tally.add(ops, results, reference)
        if perf_counter() >= deadline:
            return plain, traced, summaries, speed


def layer_metrics(plain, traced, summaries, metric_units) -> dict[str, float]:
    out = {}
    for name, unit in metric_units:
        if name == "trace.overhead_ratio":
            base = statistics.median(plain)
            out[name] = (statistics.median(traced) - base) / base
        elif unit == "s" or name == "pipeline.useful_round_ratio":
            out[name] = statistics.median(s[name] for s in summaries)
        else:
            values = {s[name] for s in summaries}
            if len(values) > 1:
                print(f"warning: {name} differs between traced passes: {sorted(values)}", file=sys.stderr)
            out[name] = summaries[-1][name]
    return out


# ---------------------------------------------------------------------------
# Reporting.


def _result_line(tally: Tally, metrics: dict[str, float], units: dict[str, str]) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
    )


def _print_header(args, ops, passes: int, tally: Tally, speed: Speed) -> None:
    print(f"pgl benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"  passes={passes} ops/pass={len(ops)} attempted={tally.attempted} failed={tally.failed}"
        f" error_rate={tally.failed / tally.attempted:g} (ratio)"
    )
    q = quartiles(speed.refs)
    print(
        f"  reference work: median {q[1]:.6f} s, q1 {q[0]:.6f} q3 {q[2]:.6f} over {len(speed.refs)} samples;"
        f" times are scaled to {REF_NOMINAL_S} s"
    )
    for reason in tally.reasons:
        print(f"  FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pgl" / "cli.py").is_file():
        print(f"perfbench: no pgl sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _run(args, work: Path) -> int:
    setup = [] if args.trace else measure_setup(args.workload, args.seed, work)
    sys.path.insert(0, str(SRC))
    import pgl.cli as cli

    ops = corpus.build(args.workload, args.seed, str(work / "corpus"))
    pinned = None
    if args.workload == "analyze" and args.seed == DEFAULT_SEED:
        pinned = json.loads(PINNED.read_text(encoding="ascii"))
    tally = Tally(pinned)

    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, summaries, speed = traced_run(cli, ops, args.seconds, tally, tracer)
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(str(out_dir / f"spans-{args.workload}-{args.seed}.json"))
        metrics = layer_metrics(plain, traced, summaries, tracing.METRICS)
        _print_header(args, ops, len(plain) + len(traced), tally, speed)
        print(
            f"  untraced passes={len(plain)} (median {statistics.median(plain):.6f} s),"
            f" traced passes={len(traced)} (median {statistics.median(traced):.6f} s);"
            " times below are medians over traced passes, counts are per pass"
        )
        for name, unit in tracing.METRICS:
            print(f"  {name:40s} {metrics[name]:14.6f} {unit}")
        print(_result_line(tally, metrics, dict(tracing.METRICS)))
        return 0

    totals, latencies, raw, speed = untraced_run(cli, ops, args.seconds, tally)
    p_cuts = statistics.quantiles(latencies, n=20)
    p50, p90 = statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]
    metrics = {
        "total_s": statistics.median(totals),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _print_header(args, ops, len(totals), tally, speed)
    q = quartiles(totals)
    print(
        f"  total_s     {metrics['total_s']:.6f} s   q1 {q[0]:.6f} q3 {q[2]:.6f} over {len(totals)} passes"
        f" (unscaled median {statistics.median(raw):.6f} s)"
    )
    print(
        f"  op_p50_ms   {metrics['op_p50_ms']:.6f} ms  p25 {p_cuts[4] * 1e3:.6f} p75 {p_cuts[14] * 1e3:.6f}"
        f" over {len(latencies)} ops"
    )
    beyond = sum(1 for x in latencies if x > p90)
    print(f"  op_p90_ms   {metrics['op_p90_ms']:.6f} ms  {beyond} of {len(latencies)} ops beyond it")
    q = quartiles(setup)
    print(f"  setup_s     {metrics['setup_s']:.6f} s   q1 {q[0]:.6f} q3 {q[2]:.6f} over {len(setup)} fresh processes")
    print(f"  peak_rss_mb {metrics['peak_rss_mb']:.3f} MB")
    per_op = [statistics.median(latencies[i :: len(ops)]) for i in range(len(ops))]
    slowest = sorted(range(len(ops)), key=lambda i: -per_op[i])[:3]
    print(
        "  slowest ops (median, share of the summed op medians): "
        + ", ".join(f"{ops[i].name} {per_op[i] * 1e3:.1f} ms {per_op[i] / sum(per_op):.0%}" for i in slowest)
    )
    print(_result_line(tally, metrics, dict(END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
