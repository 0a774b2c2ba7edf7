"""Shared graph builders for the test suite."""

from __future__ import annotations

from pgl import Graph, make_graph


class SealedTable(dict):
    """A stand-in for the perfection walk's prefix table that fails on any read or write."""

    def _touched(self, *args):
        raise AssertionError("the prefix table was used")

    get = __getitem__ = __setitem__ = __contains__ = _touched


def cycle(n: int) -> Graph:
    return make_graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def path(n: int) -> Graph:
    return make_graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def complete(n: int) -> Graph:
    return make_graph(range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def edgeless(n: int) -> Graph:
    return make_graph(range(1, n + 1))


def house() -> Graph:
    """Five-cycle 1..5 with the chord {2, 4}."""
    return make_graph(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 4)])


def joined_double_pentagon() -> Graph:
    """Two five-cycles with every cross edge present."""
    inner = [(i, i % 5 + 1) for i in range(1, 6)]
    outer = [(u + 5, v + 5) for u, v in inner]
    cross = [(u, v + 5) for u in range(1, 6) for v in range(1, 6)]
    return make_graph(range(1, 11), inner + outer + cross)


def nice_but_imperfect() -> Graph:
    """Five-cycle plus a vertex adjacent to three consecutive cycle vertices.

    Its chromatic and clique numbers agree, yet the five-cycle survives
    as an induced subgraph.
    """
    return make_graph(range(1, 7), [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (2, 6), (3, 6), (4, 6)])


def pinned_graphs():
    """Every graph on n <= 6 vertices, then 2,000 seeded G(n, p) with n = 7..14.

    The witness digests of the searches are pinned on these 35,868 graphs.
    """
    import random

    from pgl.oracles import enumerate_graphs

    for n in range(7):
        yield from enumerate_graphs(n)
    rng = random.Random(25)
    for _ in range(2000):
        n = rng.randint(7, 14)
        p = rng.choice((0.2, 0.5, 0.8))
        yield make_graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def run_fresh(source: str, *options: str) -> str:
    """Run source in a fresh interpreter with this checkout's pgl importable; return stdout."""
    import os
    import subprocess
    import sys

    import pgl

    src = os.path.dirname(os.path.dirname(os.path.abspath(pgl.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, *options, "-c", source], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_optimized(source: str) -> str:
    """Run source under `python -O` with this checkout's pgl importable; return stdout."""
    return run_fresh(source, "-O")
