"""Core structure: tight subgraph, trimming, orientation, rigidity."""
from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import ntsp.spdag
from graphcases import corpus, named_graph, zgrid
from ntsp.graph import random_graph
from ntsp.oracle import enumerate_simple_st_paths, oracle_trim_off_path_components, path_length
from ntsp.spdag import build_core, distance_tight_subgraph, trim_off_path_components
from ntsp.sssp import distance_labels


def shortest_path_membership(g, s, t):
    """Vertices and edges lying on at least one simple shortest s-t path."""
    labels = distance_labels(g, s, t)
    paths, truncated = enumerate_simple_st_paths(g, s, t)
    assert not truncated
    verts = set()
    edges = set()
    for p in paths:
        if path_length(g, p) != labels.shortest:
            continue
        verts.update(p)
        for a, b in zip(p, p[1:]):
            edges.add(g.edge_index(a, b))
    return verts, edges


def test_tight_flags_knob():
    # the zero spur keeps k distance-tight even though no simple shortest
    # path can reach it
    g, s, t = named_graph("knob")
    tight_v, tight_e = distance_tight_subgraph(g, distance_labels(g, s, t))
    assert tight_v == [True, True, True, True]
    assert tight_e == [True, True, True]


def test_tight_flags_tri():
    g, s, t = named_graph("tri")
    tight_v, tight_e = distance_tight_subgraph(g, distance_labels(g, s, t))
    assert tight_v == [True, False, True]
    assert tight_e == [False, True, False]


def test_tight_flags_quad0():
    g, s, t = named_graph("quad0")
    tight_v, tight_e = distance_tight_subgraph(g, distance_labels(g, s, t))
    assert all(tight_v) and all(tight_e)


def test_trim_removes_knob_spur():
    g, s, t = named_graph("knob")
    spdag = build_core(g, distance_labels(g, s, t))
    assert spdag.in_core == (True, True, True, False)
    assert spdag.core_edge == (True, True, False)


def test_trim_keeps_quad0_whole():
    g, s, t = named_graph("quad0")
    spdag = build_core(g, distance_labels(g, s, t))
    assert all(spdag.in_core) and all(spdag.core_edge)


def test_trim_is_idempotent():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        g = random_graph(n, m, 3, 0.5, seed=rng.randrange(1 << 20))
        labels = distance_labels(g, 0, n - 1)
        tight_v, tight_e = distance_tight_subgraph(g, labels)
        once = trim_off_path_components(g, labels, tight_v, tight_e)
        twice = trim_off_path_components(g, labels, list(once[0]), list(once[1]))
        assert once == twice


def benchmark_queries():
    """The queries of the three benchmark workloads at seed 1."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    for make in workloads.WORKLOADS.values():
        for q in make(1, None).queries:
            yield q.graph, q.s, q.t


def test_trim_matches_block_chain_reference():
    # the ancestry rule against the block list and the BFS over blocks
    cases = list(corpus(5000))
    rng = random.Random(20261021)
    for _ in range(2000):
        n = rng.randint(2, 60)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        s, t = rng.sample(range(n), 2)
        cases.append((random_graph(n, m, 5, zp, seed=rng.randrange(1 << 32)), s, t))
    cases += benchmark_queries()
    for g, s, t in cases:
        labels = distance_labels(g, s, t)
        tight_v, tight_e = distance_tight_subgraph(g, labels)
        want = oracle_trim_off_path_components(g, labels, tight_v, tight_e)
        assert trim_off_path_components(g, labels, tight_v, tight_e) == want, (g, s, t)
    assert len(cases) == 5000 + 2000 + 4 + 2 + 4000


def test_orientation_pent():
    g, s, t = named_graph("pent")
    spdag = build_core(g, distance_labels(g, s, t))
    assert spdag.arcs == ((0, 1, 1), (0, 2, 2), (1, 2, 1), (1, 3, 2), (2, 3, 1))
    assert spdag.zero_edges == ()


def test_orientation_quad0():
    g, s, t = named_graph("quad0")
    spdag = build_core(g, distance_labels(g, s, t))
    assert spdag.arcs == ((0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1))
    assert spdag.zero_edges == ((1, 2),)
    assert (2, 0) in spdag.succ_all[1] and (1, 0) in spdag.succ_all[2]


def test_membership_matches_enumeration():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        spdag = build_core(g, distance_labels(g, s, t))
        verts, edges = shortest_path_membership(g, s, t)
        assert {v for v in range(n) if spdag.in_core[v]} == verts
        assert {i for i in range(g.m) if spdag.core_edge[i]} == edges


def test_arc_invariants_and_rigidity():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        g = random_graph(n, m, 3, 0.4, seed=rng.randrange(1 << 20))
        spdag = build_core(g, distance_labels(g, 0, n - 1))
        for u, v, w in spdag.arcs:
            assert w > 0
            assert spdag.level[v] - spdag.level[u] == w
        for u, v in spdag.zero_edges:
            assert u < v and spdag.level[u] == spdag.level[v]
        # any directed walk costs exactly the level difference
        for _ in range(20):
            v = rng.choice(spdag.core_vertices())
            start = v
            total = 0
            for _ in range(rng.randint(1, 6)):
                nxt = spdag.succ_all[v]
                if not nxt:
                    break
                nb, w = rng.choice(nxt)
                total += w
                v = nb
            assert total == spdag.level[v] - spdag.level[start]


def test_trim_runs_only_for_tight_zero_edges(monkeypatch):
    # without a tight zero edge every tight vertex and edge lies on a simple
    # shortest path, so build_core skips the trim and must still equal it
    trims = []

    def counted(*args):
        trims.append(1)
        return trim_off_path_components(*args)

    monkeypatch.setattr(ntsp.spdag, "trim_off_path_components", counted)
    cases = corpus(5000, zero_probs=(0.0,))
    rng = random.Random(20261019)
    for _ in range(3000):
        n = rng.randint(2, 80)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.05, 0.2, 0.5])
        s, t = rng.sample(range(n), 2)
        g = random_graph(n, m, rng.choice([1, 2, 5]), zp, seed=rng.randrange(1 << 32))
        cases.append((g, s, t))
    sides = [0, 0]
    for g, s, t in cases:
        labels = distance_labels(g, s, t)
        tight_v, tight_e = distance_tight_subgraph(g, labels)
        zero = any(w == 0 for w, e in zip(g.ew, tight_e) if e)
        sides[zero] += 1
        trims.clear()
        spdag = build_core(g, labels)
        assert len(trims) == zero
        core_v, core_e = trim_off_path_components(g, labels, tight_v, tight_e)
        assert (spdag.in_core, spdag.core_edge) == (tuple(core_v), tuple(core_e)), (g, s, t)
    assert sides[0] >= 6000 and sides[1] >= 1500  # 6,132 and 1,868 here


def reference_rows(g, spdag):
    """Both row sets rebuilt from g.edges, core_edge and level alone."""
    succ = [[] for _ in range(g.n)]
    pred = [[] for _ in range(g.n)]
    for i, (u, v, w) in enumerate(g.edges):
        if not spdag.core_edge[i]:
            continue
        if w == 0:
            succ[u].append((v, 0))
            succ[v].append((u, 0))
            pred[u].append((v, 0))
            pred[v].append((u, 0))
            continue
        if spdag.level[u] > spdag.level[v]:
            u, v = v, u
        succ[u].append((v, w))
        pred[v].append((u, w))
    return [sorted(r) for r in succ], [sorted(r) for r in pred]


def test_core_rows_match_edge_reference():
    cases = list(corpus(5000))
    rng = random.Random(20261020)
    for _ in range(1500):
        n = rng.randint(2, 60)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
        s, t = rng.sample(range(n), 2)
        g = random_graph(n, m, rng.choice([1, 3, 8]), zp, seed=rng.randrange(1 << 32))
        cases.append((g, s, t))
    for k in range(2, 13):
        for p in (0.0, 0.3, 0.7):
            cases.append((zgrid(k, p, seed=k), 0, k * k - 1))
    zero_rows = 0
    for g, s, t in cases:
        spdag = build_core(g, distance_labels(g, s, t))
        succ, pred = reference_rows(g, spdag)
        assert [spdag.row(v, True) for v in range(g.n)] == succ, (g, s, t)
        assert [spdag.row(v, False) for v in range(g.n)] == pred, (g, s, t)
        assert list(spdag.succ_all) == succ and list(spdag.pred_all) == pred
        assert len(spdag.succ_all) == len(spdag.pred_all) == g.n
        for v in range(g.n):
            if not spdag.in_core[v]:
                assert spdag.succ_all[v] == spdag.pred_all[v] == []
        zero_rows += bool(spdag.zero_edges)
    assert len(cases) == 5000 + 1500 + 33
    assert zero_rows >= 3500, zero_rows  # 3,941 cores with a zero edge here
