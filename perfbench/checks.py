"""Answer checks of the pgl benchmark, independent of pgl itself.

A check returns None when an op's outputs are right and a one-line
reason otherwise.  Imperfect graphs may legitimately be certified
(theta = alpha can hold on an imperfect graph), so certify is only
required to succeed on graphs that are perfect by construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

from corpus import GraphSpec, Op, complement_edges

_ANALYZE_LINE = re.compile(
    r"alpha=(\d+) omega=(\d+) chi=(\d+) nice=(true|false) perfect=(true|false)\n\Z"
)
_FAILURE_LINE = re.compile(
    r"perfectness failure: kind=([a-z-]+) subgraph=\[([0-9, ]*)\] found=(\d+) required=(\d+)\n\Z"
)


@dataclass(frozen=True)
class OpResult:
    """Exit code and stdout of each command an op ran, plus the certificate text."""

    codes: tuple[int, ...]
    outs: tuple[str, ...]
    cert_text: str | None = None
    error: str | None = None


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _max_stable(n: int, edges) -> int:
    """Exact stable number by branching on the lowest candidate vertex."""
    adj = _adjacency(n, edges)
    best = 0

    def rec(cand: int, size: int) -> None:
        nonlocal best
        if size + cand.bit_count() <= best:
            return
        if not cand:
            best = size
            return
        v = cand & -cand
        i = v.bit_length() - 1
        if not adj[i] & cand:
            rec(cand ^ v, size + 1)
            return
        rec(cand & ~v & ~adj[i], size + 1)
        rec(cand ^ v, size)

    rec((1 << n) - 1, 0)
    return best


@lru_cache(maxsize=None)
def alpha_omega(spec: GraphSpec) -> tuple[int, int]:
    return _max_stable(spec.n, spec.edges), _max_stable(spec.n, complement_edges(spec.n, spec.edges))


def check_analyze(op: Op, res: OpResult, pinned: dict[str, str] | None) -> str | None:
    if res.codes != (0,):
        return f"exit codes {res.codes}, expected (0,)"
    match = _ANALYZE_LINE.match(res.outs[0])
    if not match:
        return f"unexpected output {res.outs[0]!r}"
    alpha, omega, chi = (int(match.group(k)) for k in (1, 2, 3))
    nice, perfect = match.group(4) == "true", match.group(5) == "true"
    spec = op.graph
    if perfect != spec.perfect:
        return f"perfect={perfect}, but the family says {spec.perfect}"
    if nice != (chi == omega):
        return f"nice={nice} contradicts chi={chi} omega={omega}"
    if perfect and not nice:
        return "perfect graph reported not nice"
    if (alpha, omega) != alpha_omega(spec):
        return f"alpha, omega = {alpha}, {omega}; expected {alpha_omega(spec)}"
    if pinned is not None and pinned.get(op.name) != res.outs[0]:
        return f"line {res.outs[0]!r} differs from pinned {pinned.get(op.name)!r}"
    return None


def check_certificate(spec: GraphSpec, text: str) -> str | None:
    """O(n^2) re-check: alpha cliques cover V, and the complement coloring
    is proper and uses exactly alpha colors.  Extra JSON fields are allowed."""
    try:
        doc = json.loads(text)
        alpha = doc["alpha"]
        cover = [[int(v) - spec.offset for v in part] for part in doc["clique_cover"]]
        coloring = {int(v) - spec.offset: c for v, c in doc["complement_coloring"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed certificate: {exc!r}"
    if not isinstance(alpha, int) or alpha != alpha_omega(spec)[0]:
        return f"certificate alpha {alpha!r}, stable number is {alpha_omega(spec)[0]}"
    if len(cover) != alpha:
        return f"cover has {len(cover)} parts, alpha is {alpha}"
    adj = _adjacency(spec.n, spec.edges)
    covered = 0
    for part in cover:
        for i, u in enumerate(part):
            if not 0 <= u < spec.n:
                return f"cover vertex {u + spec.offset} not in the graph"
            covered |= 1 << u
            for v in part[i + 1 :]:
                if not adj[u] >> v & 1:
                    return f"cover part {part} is not a clique"
    if covered != (1 << spec.n) - 1:
        return "cover misses vertices"
    if sorted(coloring) != list(range(spec.n)):
        return "coloring is not defined on exactly the vertices"
    for u in range(spec.n):
        for v in range(u + 1, spec.n):
            if not adj[u] >> v & 1 and coloring[u] == coloring[v]:
                return f"complement edge {u + spec.offset}-{v + spec.offset} is monochromatic"
    if len(set(coloring.values())) != alpha:
        return f"coloring uses {len(set(coloring.values()))} colors, alpha is {alpha}"
    return None


def check_certify(op: Op, res: OpResult) -> str | None:
    spec = op.graph
    if res.codes == (0, 0):
        if res.outs != ("", "certificate ok\n"):
            return f"unexpected output {res.outs!r}"
        if res.cert_text is None:
            return "certify exited 0 without writing a certificate"
        return check_certificate(spec, res.cert_text)
    if res.codes == (1,) and not spec.perfect:
        match = _FAILURE_LINE.match(res.outs[0])
        if not match:
            return f"unexpected failure output {res.outs[0]!r}"
        sub = [int(v) - spec.offset for v in match.group(2).split(",") if v.strip()]
        if not sub or not all(0 <= v < spec.n for v in sub):
            return f"failure subgraph {match.group(2)!r} is not a vertex subset"
        if int(match.group(3)) >= int(match.group(4)):
            return "failure evidence has found >= required"
        return None
    return f"exit codes {res.codes} on a graph with perfect={spec.perfect}"


def check_sweep(op: Op, res: OpResult) -> str | None:
    want = f"{op.expect_graphs} graphs, 0 counterexamples\n"
    if res.codes != (0,) or res.outs[0] != want:
        return f"exit codes {res.codes}, output {res.outs[0]!r}; expected 0, {want!r}"
    return None


def check(op: Op, res: OpResult, pinned: dict[str, str] | None = None) -> str | None:
    """Reason the op's outputs are wrong, or None when they are right."""
    if res.error is not None:
        return res.error
    if op.kind == "analyze":
        return check_analyze(op, res, pinned)
    if op.kind == "certify":
        return check_certify(op, res)
    return check_sweep(op, res)
