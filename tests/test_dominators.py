"""Immediate dominators against the removal-based and Lengauer-Tarjan
references."""
from __future__ import annotations

import random

import pytest

from graphcases import corpus, named_graph, zgrid
from ntsp.dominators import (
    UnreachableVertexError,
    core_dominator_trees,
    dag_dominators,
    immediate_dominators,
)
from ntsp.graph import random_graph
from ntsp.oracle import oracle_immediate_dominator, oracle_lengauer_tarjan
from ntsp.solver import build_core_context
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
    # rows hold (neighbour, weight) pairs, like SpDag rows
    succ = [[(1, 1)], [], []]
    pred = [[], [(0, 1)], []]
    with pytest.raises(UnreachableVertexError):
        immediate_dominators(3, succ, pred, 0, [0, 1, 2])
    # restricting the active set to what is reachable is fine
    tree = immediate_dominators(3, succ, pred, 0, [0, 1])
    assert tree.idom[1] == 0 and tree.idom[2] == -1


def test_dag_pass_raises_on_unreachable_node():
    # arcs 0 -> 1 and 2 -> 1; row v lists v's predecessors
    pred = [[], [0, 2], []]
    with pytest.raises(UnreachableVertexError):
        dag_dominators(3, pred, [0, 2, 1], 0)
    # a root later in the order: what comes before it is cut off
    with pytest.raises(UnreachableVertexError):
        dag_dominators(3, pred, [2, 0, 1], 0)
    tree = dag_dominators(3, [[], [0], [1]], [0, 1, 2], 0)
    assert tree.idom == [-1, 0, 1] and tree.dominates(1, 2)


def cluster_dag_instances():
    """Every cluster DAG of the corpus, 3,000 seeded instances at n = 10..60
    and zgrids k in {8, 16, 24} at four zero-edge probabilities."""
    for g, s, t in corpus(5000):
        yield g, s, t
    rng = random.Random(20261020)
    for _ in range(3000):
        n = rng.randint(10, 60)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        s, t = rng.sample(range(n), 2)
        yield random_graph(n, m, 5, zp, seed=rng.randrange(1 << 32)), s, t
    for k in (8, 16, 24):
        for p in (0.1, 0.3, 0.6, 0.9):
            yield zgrid(k, p), 0, k * k - 1


def test_dag_pass_matches_lengauer_tarjan():
    # the one-pass cluster trees against Lengauer-Tarjan on the same arcs
    clusters = 0
    for g, s, t in cluster_dag_instances():
        dag = build_core_context(g, distance_labels(g, s, t)).dag
        # a zero-free DAG keys clusters by vertex id, and the ids off the core
        # are no node; the reference runs on the nodes renumbered densely
        every = [c for c in range(dag.count) if c == dag.source_comp or dag.pred[c]]
        dense = {c: i for i, c in enumerate(every)}
        succ = [[dense[b] for b in dag.succ[c]] for c in every]
        pred = [[dense[a] for a in dag.pred[c]] for c in every]
        refs = (
            oracle_lengauer_tarjan(len(every), succ, pred, dense[dag.source_comp]),
            oracle_lengauer_tarjan(len(every), pred, succ, dense[dag.target_comp]),
        )
        for got, dense_ref in zip((dag.idom_s, dag.idom_t), refs):
            ref = [-1] * dag.count
            for c, i in zip(every, dense_ref):
                ref[c] = -1 if i == -1 else every[i]
            assert got.idom == ref, (g, s, t)
            for b in every:
                # a dominates b exactly when a is on b's idom chain
                chain = {b}
                u = b
                while ref[u] != -1:
                    u = ref[u]
                    chain.add(u)
                assert [got.dominates(a, b) for a in every] == [a in chain for a in every]
        clusters += len(every)
    assert clusters > 30_000


def core_instances():
    """The corpus plus 2,000 seeded instances at n = 10..80, past the
    removal oracle's reach."""
    yield from corpus(5000)
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(10, 80)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        max_w = rng.choice([1, 2, 5])
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        s, t = rng.sample(range(n), 2)
        yield random_graph(n, m, max_w, zp, seed=rng.randrange(1 << 32)), s, t


def test_core_trees_match_lengauer_tarjan():
    # semi-NCA on the core against Lengauer-Tarjan on the core relabelled
    # 0..k-1; vertices outside the core keep idom -1
    trees = 0
    for g, s, t in core_instances():
        spdag = build_core(g, distance_labels(g, s, t))
        core = spdag.core_vertices()
        index = {v: i for i, v in enumerate(core)}
        succ = [[index[nb] for nb, _ in spdag.succ_all[v]] for v in core]
        pred = [[index[nb] for nb, _ in spdag.pred_all[v]] for v in core]
        ref_s = oracle_lengauer_tarjan(len(core), succ, pred, index[s])
        ref_t = oracle_lengauer_tarjan(len(core), pred, succ, index[t])
        for got, ref in zip(core_dominator_trees(spdag), (ref_s, ref_t)):
            want = [-1] * g.n
            for v, d in zip(core, ref):
                want[v] = -1 if d == -1 else core[d]
            assert got.idom == want, (g, s, t)
            trees += 1
    assert trees >= 14_000
