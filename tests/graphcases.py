"""Shared test instances: the hand-sized named graphs and the seeded corpus.

Vertex ids in the named graphs follow one convention: 0 is the query source,
the highest id is the query target, interior vertices are numbered in the
order they appear in the edge list below.  The exceptions are kept exactly
as fuzzing shrank them.  In "phantom" a doubly pinned cluster pair carries
the three flow units of its test although no zigzag exists, and every simple
path has the shortest length.  In "swap" the least detour crossing 1->4
realizes only through the climb pair that disjoint_st_pair returns swapped:
s climbs to 4's anchor and 1's anchor climbs out to t.
"""
from __future__ import annotations

import random

from ntsp.graph import Graph, build_graph, random_graph

# name -> (n, edges, s, t)
NAMED: dict[str, tuple[int, list[tuple[int, int, int]], int, int]] = {
    "tri": (3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)], 0, 2),
    "out": (4, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1)], 0, 3),
    "pent": (4, [(0, 1, 1), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 1)], 0, 3),
    "quad0": (4, [(0, 1, 1), (0, 2, 1), (1, 2, 0), (1, 3, 1), (2, 3, 1)], 0, 3),
    "knob": (4, [(0, 1, 1), (1, 2, 1), (1, 3, 0)], 0, 2),
    "chain": (3, [(0, 1, 1), (1, 2, 1)], 0, 2),
    "tII": (
        6,
        [(0, 1, 1), (0, 2, 1), (1, 2, 0), (1, 3, 1), (1, 4, 1),
         (2, 4, 1), (3, 4, 0), (3, 5, 1), (4, 5, 1)],
        0, 5,
    ),
    "tIII": (
        6,
        [(0, 1, 1), (0, 2, 1), (1, 2, 0), (1, 3, 1), (1, 4, 1),
         (2, 4, 1), (3, 4, 0), (3, 5, 1), (4, 5, 1), (2, 5, 2)],
        0, 5,
    ),
    "phantom": (
        7,
        [(0, 1, 1), (0, 5, 1), (1, 2, 1), (1, 5, 0), (2, 3, 0), (3, 4, 1),
         (3, 6, 0), (4, 6, 1), (5, 6, 1)],
        4, 0,
    ),
    "swap": (
        6,
        [(0, 3, 0), (0, 5, 0), (1, 2, 0), (1, 3, 0), (1, 4, 1), (1, 5, 0),
         (2, 3, 0), (2, 4, 0), (4, 5, 2)],
        0, 5,
    ),
}

# name -> (status, kind, length); kind and length are None for "none"
EXPECTED: dict[str, tuple[str, str | None, int | None]] = {
    "tri": ("found", "detour", 2),
    "out": ("found", "detour", 3),
    "pent": ("found", "zigzag", 5),
    "quad0": ("none", None, None),
    "knob": ("none", None, None),
    "chain": ("none", None, None),
    "tII": ("found", "zigzag", 5),
    "tIII": ("found", "zigzag", 5),
    "phantom": ("none", None, None),
    "swap": ("found", "detour", 1),
}


def named_graph(name: str) -> tuple[Graph, int, int]:
    n, edges, s, t = NAMED[name]
    return build_graph(n, edges), s, t


def corpus(
    count: int = 5000,
    zero_probs: tuple[float, ...] = (0.0, 0.3, 0.6),
    seed: int = 20260822,
) -> list[tuple[Graph, int, int]]:
    """Seeded connected instances: n in [4,9], m <= 18, weights in {0..3}."""
    rng = random.Random(seed)
    out: list[tuple[Graph, int, int]] = []
    while len(out) < count:
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice(zero_probs)
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 30))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        out.append((g, s, t))
    return out


def zgrid(k: int, p: float, seed: int = 1) -> Graph:
    """Unit k-by-k grid plus each zero edge (r, c)-(r+1, c-1) with probability p.

    Vertex r*k + c sits at level r + c from the corner 0, and both ends of a
    zero edge share a level, so the corner-to-corner query keeps the whole
    grid as its core, cut into zero clusters of many sizes.
    """
    rng = random.Random(seed)
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1, 1))
            if r + 1 < k:
                edges.append((v, v + k, 1))
                if c > 0 and rng.random() < p:
                    edges.append((v, v + k - 1, 0))
    return build_graph(k * k, edges)


def chain_fan(L: int) -> tuple[Graph, int, int]:
    """An s-chain of L unit edges, plus L fan vertices b_j joined to the
    chain's end by weight 1, to s by weight L+1 and to t by weight 1.

    Every b_j sits on two shortest paths, one down the whole chain, so its
    two cluster predecessors are s and the chain's end, L steps apart in the
    dominator tree.  Returns (graph, s, t) with s = 0 and t = 2L + 1.
    """
    t = 2 * L + 1
    edges = [(i, i + 1, 1) for i in range(L)]
    for b in range(L + 1, t):
        edges += [(L, b, 1), (0, b, L + 1), (b, t, 1)]
    return build_graph(t + 1, edges), 0, t


def zero_tie_level() -> tuple[Graph, int]:
    """A graph whose distance-1 level settles in neither sorted nor bucket
    insertion order, rooted at 0.

    Level 0 is {0, 6}; 0 reaches 4 and 6 reaches 1, so the level-1 bucket
    is [4, 1] when it opens.  Zero edges then add 2 (from 1), 3 (from 4)
    and 5 (from 2 or 4, whichever settles first).  The (distance, id) order
    settles 1, 2, 4, 3, 5, so 5 takes 2 as parent; scanning the bucket as
    it grows settles 4, 1, 3, 5, 2 and gives 5 the parent 4, because 2 has
    not settled yet.
    """
    edges = [(0, 4, 1), (0, 6, 0), (6, 1, 1), (1, 2, 0), (2, 5, 0), (4, 5, 0), (3, 4, 0), (5, 7, 1)]
    return build_graph(8, edges), 0
