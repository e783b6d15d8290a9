"""The benchmark's workloads and the referees that check their answers.

Every input comes from the seed argument alone.  A workload is the list of
queries the closed loop cycles through; a query that also names a file is
run a second time through the command line front end.  Referees run after
the timed window and never share code with the solver.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ntsp import Graph, NtspResult, build_graph, oracle_next_to_shortest, random_graph, serialize_graph

# 8192 vertices keep one query near 0.3 s in CPython, so a run repeats each
# query often enough for its best time to be steady on a shared host.
RANDOM_N = 8192
GRID_K = 32
SMALL_POOL = 4000
SMALL_CLI_EVERY = 10


@dataclass(frozen=True)
class Query:
    graph: Graph
    s: int
    t: int
    cli_file: str | None  # the graph on disk when the query also runs through the CLI


@dataclass(frozen=True)
class Workload:
    queries: list[Query]
    warmup: int  # queries answered once before any timing
    collect_every: int  # queries between garbage collections, outside the timings
    referee: Callable[[Query, NtspResult], str | None]

    def check(self, q: Query, res: NtspResult) -> str | None:
        """Why the answer is wrong, or None when it passes every check."""
        return witness_problem(q, res) or self.referee(q, res)


def _write(g: Graph, cli_dir: Path | None, name: str) -> str | None:
    if cli_dir is None:
        return None
    path = cli_dir / name
    path.write_text(serialize_graph(g))
    return str(path)


def random_zp20(seed: int, cli_dir: Path | None) -> Workload:
    """One random graph where the linear layers do almost all the work."""
    rng = random.Random(seed)
    g = random_graph(RANDOM_N, 4 * RANDOM_N, max_w=8, zero_prob=0.2, seed=rng.randrange(1 << 32))
    pairs = [(0, g.n - 1)] + [tuple(rng.sample(range(g.n), 2)) for _ in range(3)]
    path = _write(g, cli_dir, "random-zp20.txt")
    return Workload(
        queries=[Query(g, s, t, path) for s, t in pairs],
        warmup=1,
        collect_every=1,
        referee=shortest_referee,
    )


def grid_wide(seed: int, cli_dir: Path | None) -> Workload:
    """Unit k-by-k grid, both diagonals: every core vertex is its own cluster."""
    k = GRID_K
    perm = list(range(k * k))
    random.Random(seed).shuffle(perm)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((perm[v], perm[v + 1], 1))
            if r + 1 < k:
                edges.append((perm[v], perm[v + k], 1))
    g = build_graph(k * k, edges)
    path = _write(g, cli_dir, "grid-wide.txt")
    corners = [(0, k * k - 1), (k - 1, k * k - k)]
    return Workload(
        queries=[Query(g, perm[a], perm[b], path) for a, b in corners],
        warmup=1,
        collect_every=1,
        referee=grid_referee,
    )


def small_mixed(seed: int, cli_dir: Path | None) -> Workload:
    """A pool of tiny random instances where fixed per-query costs dominate."""
    rng = random.Random(seed)
    queries = []
    for i in range(SMALL_POOL):
        n = rng.randint(6, 12)
        m = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        zero_prob = rng.choice((0.0, 0.3, 0.5, 0.7, 0.9))
        g = random_graph(n, m, max_w=5, zero_prob=zero_prob, seed=rng.randrange(1 << 32))
        s, t = rng.sample(range(n), 2)
        path = _write(g, cli_dir, f"small-{i}.txt") if i % SMALL_CLI_EVERY == 0 else None
        queries.append(Query(g, s, t, path))
    return Workload(queries=queries, warmup=200, collect_every=200, referee=oracle_referee)


WORKLOADS: dict[str, Callable[[int, Path | None], Workload]] = {
    "random-zp20": random_zp20,
    "grid-wide": grid_wide,
    "small-mixed": small_mixed,
}


def witness_problem(q: Query, res: NtspResult) -> str | None:
    """Why a found witness is not a simple s-t path of the reported length
    strictly above the reported shortest; None when it is."""
    if res.status == "none":
        return None
    if res.status != "found":
        return f"unknown status {res.status!r}"
    path = list(res.path)
    if path[0] != q.s or path[-1] != q.t:
        return "witness does not run from s to t"
    if len(set(path)) != len(path):
        return "witness repeats a vertex"
    weight = {(u, v): w for u, v, w in q.graph.edges}
    total = 0
    for a, b in zip(path, path[1:]):
        w = weight.get((min(a, b), max(a, b)))
        if w is None:
            return f"witness uses missing edge {a}-{b}"
        total += w
    if total != res.length:
        return f"witness has length {total}, reported {res.length}"
    if total <= res.shortest:
        return f"witness length {total} is not above shortest {res.shortest}"
    return None


def referee_shortest(q: Query) -> int:
    """s-t distance by scipy's Dijkstra, independent of the solver."""
    # imported here so that the peak-RSS child, which checks nothing, stays lean
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    g = q.graph
    us, vs, ws = zip(*g.edges)
    rows = np.array(us + vs)
    cols = np.array(vs + us)
    weights = np.array(ws + ws, dtype=float)
    mat = csr_matrix((weights, (rows, cols)), shape=(g.n, g.n))
    if mat.nnz != 2 * g.m:
        raise RuntimeError("referee lost zero-weight edges")
    return int(dijkstra(mat, directed=True, indices=q.s)[q.t])


def shortest_referee(q: Query, res: NtspResult) -> str | None:
    want = referee_shortest(q)
    if res.shortest != want:
        return f"shortest {res.shortest}, referee says {want}"
    return None


def grid_referee(q: Query, res: NtspResult) -> str | None:
    if res.shortest != 2 * (GRID_K - 1) or res.length != 2 * GRID_K:
        return f"shortest {res.shortest} length {res.length}, closed form {2 * (GRID_K - 1)} {2 * GRID_K}"
    return None


def oracle_referee(q: Query, res: NtspResult) -> str | None:
    complaint = shortest_referee(q, res)
    if complaint is not None:
        return complaint
    want = oracle_next_to_shortest(q.graph, q.s, q.t)
    if res.length != want:
        return f"length {res.length}, exhaustive search says {want}"
    return None
