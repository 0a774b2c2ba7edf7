"""Layer tracer of the pgl benchmark.

While installed, every public function of each pgl layer module is
rebound, in every ``pgl`` namespace that holds it, to a wrapper that
records a span: function, start, end, parent span and op id.  Generator
functions get a wrapper that times each ``next()``.  Nothing in ``src/``
is edited; ``uninstall`` puts the original objects back.

A layer's self time is the time of its spans minus the time of their
child spans.  Work in private helpers, methods and classes is charged
to the public function that called it.  Spans stay in memory; the
caller writes them out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "formats", "core", "invariants", "constructions", "pipeline", "oracles", "iso", "sweeps")

# Inclusive time of the outermost span among a group of functions.
GROUPS = {
    "invariants.is_perfect": "invariants.is_perfect_s",
    "invariants.graph_parameters": "invariants.params_s",
    "invariants.clique_number": "invariants.clique_s",
    "invariants.max_clique_witness": "invariants.clique_s",
    "invariants.max_stable_sets": "invariants.max_stable_sets_s",
    "constructions.build_separated_graph": "constructions.separate_s",
    "constructions.expand": "constructions.expand_s",
    "pipeline.wpgt_certificate": "pipeline.certify_s",
    "pipeline.verify_certificate": "pipeline.verify_s",
    "oracles.is_berge": "oracles.berge_s",
    "oracles.find_odd_hole_or_antihole": "oracles.berge_s",
    "oracles.oracle_parameters": "oracles.params_s",
}

# Calls of one function, reported under their own name.
CALL_COUNTS = {
    "invariants.is_perfect": "invariants.is_perfect_calls",
    "constructions.build_separated_graph": "constructions.separate_calls",
    "pipeline.intersecting_clique": "pipeline.rounds",
    "iso.find_isomorphism": "iso.find_calls",
}


def _is_perfect(counts, args, kwargs, result, duration):
    if (args[0] if args else kwargs["G"]).n >= 13:
        counts["invariants.is_perfect_n13plus_calls"] += 1
        counts["invariants.is_perfect_n13plus_s"] += duration


def _max_stable_sets(counts, args, kwargs, result, duration):
    counts["invariants.max_stable_sets_found"] += len(result)


def _separate(counts, args, kwargs, result, duration):
    counts["constructions.separated_vertices"] += result.separated.n
    counts["constructions.separated_edges"] += result.separated.m


def _expand(counts, args, kwargs, result, duration):
    counts["constructions.expanded_vertices"] += result[0].n


def _round(counts, args, kwargs, result, duration):
    if not isinstance(result, tuple):
        counts["pipeline.failures"] += 1


def _generated(counts, args, kwargs, result, duration):
    counts["oracles.graphs_generated"] += 1


def _swept(counts, args, kwargs, result, duration):
    counts["sweeps.graphs_checked"] += result.graphs_checked


# Totals read from arguments, results and span durations after a call
# returns; a generator's hook sees each item.
HOOKS = {
    "invariants.is_perfect": _is_perfect,
    "invariants.max_stable_sets": _max_stable_sets,
    "constructions.build_separated_graph": _separate,
    "constructions.expand": _expand,
    "pipeline.intersecting_clique": _round,
    "oracles.enumerate_graphs": _generated,
    "sweeps.sweep": _swept,
}

# Totals the hooks keep, with their units.
HOOK_TOTALS = (
    ("invariants.is_perfect_n13plus_s", "s"),
    ("invariants.is_perfect_n13plus_calls", "count"),
    ("invariants.max_stable_sets_found", "count"),
    ("constructions.separated_vertices", "count"),
    ("constructions.separated_edges", "count"),
    ("constructions.expanded_vertices", "count"),
    ("pipeline.failures", "count"),
    ("oracles.graphs_generated", "count"),
    ("sweeps.graphs_checked", "count"),
)

# Every per-layer metric the traced run reports, with its unit.
METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [(name, "s") for name in dict.fromkeys(GROUPS.values())]
    + [(name, "count") for name in CALL_COUNTS.values()]
    + list(HOOK_TOTALS)
    + [("pipeline.useful_round_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
)


def public_functions():
    """(qualified name, layer index, function) for every public function of each layer."""
    out = []
    for li, layer in enumerate(LAYERS):
        module = importlib.import_module(f"pgl.{layer}")
        for name, obj in vars(module).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out.append((f"{layer}.{name}", li, obj))
    return out


class Tracer:
    """Span recorder for one traced pass at a time; see the module docstring."""

    def __init__(self) -> None:
        self.functions = public_functions()
        self.names = [qual for qual, _, _ in self.functions]
        self._wrappers = {id(fn): self._wrap(i, fn) for i, (_, _, fn) in enumerate(self.functions)}
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget the spans and totals of the previous pass."""
        # Span k is ids[4k:4k+4] = (id, parent, op, function) and times[2k:2k+2] = (start, end).
        self.ids = array("q")
        self.times = array("d")
        self._stack: list[list] = []
        self._next_id = 0
        self.fn_calls = [0] * len(self.functions)
        self.self_s = [0.0] * len(LAYERS)
        self.group_s: Counter = Counter()
        self._group_depth: Counter = Counter()
        self.counts: Counter = Counter()

    def _enter(self, index: int, group: str | None) -> list:
        outer = False
        if group is not None:
            outer = self._group_depth[group] == 0
            self._group_depth[group] += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, index, parent, group, outer, 0.0, perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        sid, index, parent, group, outer, child, start = frame
        self._stack.pop()
        duration = end - start
        self.self_s[self.functions[index][1]] += duration - child
        self.fn_calls[index] += 1
        if self._stack:
            self._stack[-1][5] += duration
        if group is not None:
            self._group_depth[group] -= 1
            if outer:
                self.group_s[group] += duration
        self.ids.extend((sid, parent, self.op, index))
        self.times.extend((start, end))
        return duration

    def _wrap(self, index: int, fn):
        qual = self.names[index]
        group = GROUPS.get(qual)
        hook = HOOKS.get(qual)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        frame = self._enter(index, group)
                        try:
                            item = next(it)
                        except StopIteration:
                            self._exit(frame)
                            return
                        except BaseException:
                            self._exit(frame)
                            raise
                        duration = self._exit(frame)
                        if hook is not None:
                            hook(self.counts, args, kwargs, item, duration)
                        yield item
                finally:
                    it.close()

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(index, group)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame)
                raise
            duration = self._exit(frame)
            if hook is not None:
                hook(self.counts, args, kwargs, result, duration)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every public layer function in every loaded pgl namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "pgl" or name.startswith("pgl.")]
        for module in modules:
            for name, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        while self._saved:
            module, name, obj = self._saved.pop()
            setattr(module, name, obj)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the current pass (without trace.overhead_ratio)."""
        out: dict[str, float] = {}
        calls = [0] * len(LAYERS)
        for (_, li, _), n in zip(self.functions, self.fn_calls):
            calls[li] += n
        for li, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = self.self_s[li]
            out[f"{layer}.calls"] = calls[li]
        for name in dict.fromkeys(GROUPS.values()):
            out[name] = self.group_s[name]
        for qual, name in CALL_COUNTS.items():
            out[name] = self.fn_calls[self.names.index(qual)]
        for name, _ in HOOK_TOTALS:
            out[name] = self.counts[name]
        rounds = out["pipeline.rounds"]
        out["pipeline.useful_round_ratio"] = (rounds - out["pipeline.failures"]) / rounds if rounds else 0.0
        return out

    def write_spans(self, path: str) -> None:
        """Write the current pass's spans as JSON lines.

        The first line names the fields and the functions; each further
        line is one span [id, parent, op, function, start_s, end_s], with
        parent -1 for a root span and times from the pass's first span.
        """
        ids, times = self.ids, self.times
        origin = min(times[0::2], default=0.0)
        with open(path, "w", encoding="ascii") as handle:
            header = {"fields": ["id", "parent", "op", "function", "start_s", "end_s"], "functions": self.names}
            handle.write(json.dumps(header) + "\n")
            for k in range(len(ids) // 4):
                i, t = 4 * k, 2 * k
                handle.write(
                    f"[{ids[i]},{ids[i + 1]},{ids[i + 2]},{ids[i + 3]},"
                    f"{times[t] - origin:.9f},{times[t + 1] - origin:.9f}]\n"
                )
