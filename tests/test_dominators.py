"""Immediate dominators against the removal-based reference."""
from __future__ import annotations

import random

import pytest

from graphcases import named_graph
from ntsp.dominators import UnreachableVertexError, core_dominator_trees, immediate_dominators
from ntsp.graph import random_graph
from ntsp.oracle import oracle_immediate_dominator
from ntsp.spdag import build_core
from ntsp.sssp import distance_labels


def test_chain_dominators():
    g, s, t = named_graph("chain")
    spdag = build_core(g, distance_labels(g, s, t))
    ts, tt = core_dominator_trees(spdag)
    assert ts.idom[1] == 0 and ts.idom[2] == 1 and ts.idom[0] == -1
    assert tt.idom[1] == 2 and tt.idom[0] == 1 and tt.idom[2] == -1


def test_pent_dominators():
    g, s, t = named_graph("pent")
    spdag = build_core(g, distance_labels(g, s, t))
    ts, tt = core_dominator_trees(spdag)
    assert ts.idom[1] == ts.idom[2] == ts.idom[3] == 0
    assert tt.idom[1] == tt.idom[2] == tt.idom[0] == 3


def test_trees_carry_their_setting():
    g, s, t = named_graph("pent")
    spdag = build_core(g, distance_labels(g, s, t))
    ts, tt = core_dominator_trees(spdag)
    assert (ts.root, tt.root) == (s, t)


def test_dominates_is_ancestor_closure():
    g, s, t = named_graph("tII")
    spdag = build_core(g, distance_labels(g, s, t))
    ts, _ = core_dominator_trees(spdag)
    for v in spdag.core_vertices():
        assert ts.dominates(s, v)
        assert ts.dominates(v, v)
        assert not ts.strictly_dominates(v, v)
        # walking the idom chain visits exactly the dominators of v
        chain = {v}
        u = v
        while ts.idom[u] != -1:
            u = ts.idom[u]
            chain.add(u)
        for w in spdag.core_vertices():
            assert ts.dominates(w, v) == (w in chain)


def test_matches_removal_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.4, 0.7])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        spdag = build_core(g, distance_labels(g, s, t))
        ts, tt = core_dominator_trees(spdag)
        succ = [[nb for nb, _ in spdag.succ_all[v]] for v in range(n)]
        pred = [[nb for nb, _ in spdag.pred_all[v]] for v in range(n)]
        for v in spdag.core_vertices():
            if v != s:
                assert ts.idom[v] == oracle_immediate_dominator(n, succ, s, v)
            if v != t:
                assert tt.idom[v] == oracle_immediate_dominator(n, pred, t, v)


def test_unreachable_active_vertex_raises():
    succ = [[1], [], []]
    with pytest.raises(UnreachableVertexError):
        immediate_dominators(3, succ, 0, [0, 1, 2])
    # restricting the active set to what is reachable is fine
    tree = immediate_dominators(3, succ, 0, [0, 1])
    assert tree.idom[1] == 0 and tree.idom[2] == -1
