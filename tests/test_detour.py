"""Crossing edges off the core: anchors, candidate scan, realization."""
from __future__ import annotations

import random

from graphcases import named_graph
from ntsp.detour import _realize_crossing, anchor_array, detour_candidates, shortest_detour
from ntsp.graph import random_graph
from ntsp.oracle import enumerate_simple_st_paths, oracle_detour_candidates, path_length
from ntsp.solver import distance_stage
from ntsp.spdag import build_core


def pieces(g, s, t):
    labels, parent = distance_stage(g, s, t)
    spdag = build_core(g, labels)
    anchor = anchor_array(g, spdag, parent)
    return labels, spdag, parent, anchor


def test_out_anchors():
    g, s, t = named_graph("out")
    labels, spdag, parent, anchor = pieces(g, s, t)
    # core is the chain s-a-t; b hangs off the tree below a
    assert spdag.in_core == (True, True, False, True)
    assert anchor == [0, 1, 1, 3]


def test_out_candidates_and_answer():
    g, s, t = named_graph("out")
    labels, spdag, parent, anchor = pieces(g, s, t)
    cands = detour_candidates(g, labels, spdag, anchor)
    assert cands[0][:3] == (3, 2, 3)  # score f, crossing walked b -> t
    got = shortest_detour(g, labels, spdag, parent, anchor)
    assert got == (3, [0, 1, 2, 3])


def test_tri_single_crossing():
    g, s, t = named_graph("tri")
    labels, spdag, parent, anchor = pieces(g, s, t)
    got = shortest_detour(g, labels, spdag, parent, anchor)
    assert got == (2, [0, 1, 2])


def test_swap_realizes_through_swapped_climb_pair():
    # the direct walks and the unswapped climb pair all fail on the least
    # crossing; the pair disjoint_st_pair returns swapped carries it
    g, s, t = named_graph("swap")
    labels, spdag, parent, anchor = pieces(g, s, t)
    cands = detour_candidates(g, labels, spdag, anchor)
    assert cands == [(1, 1, 4, 1)]
    path = _realize_crossing(g, labels, spdag, parent, anchor, 1, 4)
    assert path == [0, 3, 2, 4, 1, 5]
    assert shortest_detour(g, labels, spdag, parent, anchor) == (1, path)


def test_no_candidates_without_off_core_edges():
    for name in ("chain", "quad0", "knob"):
        g, s, t = named_graph(name)
        labels, spdag, parent, anchor = pieces(g, s, t)
        assert shortest_detour(g, labels, spdag, parent, anchor) is None


def test_anchor_chain_rule():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.4])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        labels, spdag, parent, anchor = pieces(g, s, t)
        dist = labels.from_s
        for v in range(n):
            if v == s:
                assert anchor[v] == s
                continue
            idx = g.edge_index(parent[v], v)
            if spdag.core_edge[idx]:
                assert anchor[v] == v
            else:
                assert anchor[v] == anchor[parent[v]]
            # the anchor sits above v on its own tree branch
            walk = [v]
            while walk[-1] != s and walk[-1] != anchor[v]:
                walk.append(parent[walk[-1]])
            assert walk[-1] == anchor[v]
            assert dist[anchor[v]] <= dist[v]


def test_candidates_always_exceed_shortest():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        labels, spdag, parent, anchor = pieces(g, s, t)
        for score, x, y, _ in oracle_detour_candidates(g, labels, spdag, parent, anchor):
            assert score > labels.shortest
            assert anchor[x] != anchor[y]


def test_matches_off_core_path_oracle():
    # the scan promises the exact minimum over simple s-t paths that leave
    # the core at least once, so check it against brute enumeration
    rng = random.Random(18)
    for _ in range(300):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        labels, spdag, parent, anchor = pieces(g, s, t)
        got = shortest_detour(g, labels, spdag, parent, anchor)
        paths, truncated = enumerate_simple_st_paths(g, s, t)
        assert not truncated
        off = [
            path_length(g, p)
            for p in paths
            if any(not spdag.core_edge[g.edge_index(a, b)] for a, b in zip(p, p[1:]))
        ]
        want = min(off) if off else None
        if want is None:
            assert got is None
        else:
            assert got is not None and got[0] == want
            path = got[1]
            assert path[0] == s and path[-1] == t
            assert len(set(path)) == len(path)
            assert path_length(g, path) == want
