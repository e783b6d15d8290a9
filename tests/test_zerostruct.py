"""Zero clusters and the contracted cluster DAG."""
from __future__ import annotations

import random

from graphcases import named_graph
from ntsp.dominators import core_dominator_trees
from ntsp.graph import build_graph, random_graph
from ntsp.oracle import oracle_zero_clusters
from ntsp.spdag import build_core
from ntsp.sssp import distance_labels
from ntsp.zerostruct import backward_feasible, build_cluster_dag, zero_clusters, zero_path_within


def structures(g, s, t):
    spdag = build_core(g, distance_labels(g, s, t))
    ts, tt = core_dominator_trees(spdag)
    partition = zero_clusters(spdag, ts, tt)
    dag = build_cluster_dag(spdag, partition, ts, tt)
    return spdag, ts, tt, partition, dag


def test_quad0_partition():
    g, s, t = named_graph("quad0")
    spdag, ts, tt, partition, dag = structures(g, s, t)
    assert partition.members == ((0,), (1, 2), (3,))
    assert partition.severed == ()
    assert partition.comp == (0, 1, 1, 2)


def test_zero_edge_at_source_is_severed():
    # a zero edge touching s realizes the dominator relation and is cut
    g = build_graph(3, [(0, 1, 0), (1, 2, 1), (0, 2, 1)])
    spdag, ts, tt, partition, dag = structures(g, 0, 2)
    assert partition.members == ((0,), (1,), (2,))
    assert partition.severed == ((0, 1),)
    # the severed edge survives as a zero arc of the contraction
    assert (1, 0, 0, 1) in dag.succ[0]


def test_no_zero_edges_means_singletons():
    g, s, t = named_graph("pent")
    spdag, ts, tt, partition, dag = structures(g, s, t)
    assert partition.count == len(spdag.core_vertices())
    assert all(len(ms) == 1 for ms in partition.members)


def test_quad0_cluster_dag():
    g, s, t = named_graph("quad0")
    spdag, ts, tt, partition, dag = structures(g, s, t)
    assert dag.count == 3
    assert dag.source_comp == 0 and dag.target_comp == 2
    assert [(b, w) for b, w, _, _ in dag.succ[0]] == [(1, 1)]
    assert [(b, w) for b, w, _, _ in dag.succ[1]] == [(2, 1)]
    assert dag.precedes(0, 2)
    assert not dag.precedes(2, 1)
    assert not dag.precedes(1, 1)


def test_zero_path_within_cluster():
    g, s, t = named_graph("quad0")
    _, _, _, partition, _ = structures(g, s, t)
    assert zero_path_within(partition, 1, 2) == [1, 2]
    assert zero_path_within(partition, 1, 1) == [1]


def test_backward_feasible_examples():
    g, s, t = named_graph("pent")
    spdag, ts, tt, partition, dag = structures(g, s, t)
    assert backward_feasible(2, 1, partition, dag, ts, tt)
    assert not backward_feasible(2, 2, partition, dag, ts, tt)
    g, s, t = named_graph("quad0")
    spdag, ts, tt, partition, dag = structures(g, s, t)
    # same cluster: never feasible
    assert not backward_feasible(1, 2, partition, dag, ts, tt)
    assert not backward_feasible(2, 1, partition, dag, ts, tt)


def test_partition_matches_oracle():
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.4, 0.6, 0.9])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        spdag, ts, tt, partition, dag = structures(g, s, t)
        want = oracle_zero_clusters(spdag, ts.idom, tt.idom)
        got = sorted((set(ms) for ms in partition.members), key=min)
        assert got == want


def test_cluster_members_share_level_and_dominators():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        g = random_graph(n, m, 3, 0.6, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        spdag, ts, tt, partition, dag = structures(g, s, t)
        for cid, ms in enumerate(partition.members):
            assert len({spdag.level[v] for v in ms}) == 1
            assert partition.comp_level[cid] == spdag.level[ms[0]]
            assert len({ts.idom[v] for v in ms}) == 1
            assert len({tt.idom[v] for v in ms}) == 1


def test_cluster_dag_arc_properties():
    rng = random.Random(10)
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        g = random_graph(n, m, 3, 0.5, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        spdag, ts, tt, partition, dag = structures(g, s, t)
        for a in range(dag.count):
            for b, w, u, v in dag.succ[a]:
                # topological order certifies acyclicity
                assert dag.topo_index[a] < dag.topo_index[b]
                # every arc weight equals the level gap
                assert dag.comp_level[b] - dag.comp_level[a] == w
                # the witness is a real core edge joining the clusters
                assert partition.comp[u] == a and partition.comp[v] == b
                assert g.edge_index(u, v) is not None
                if w == 0:
                    assert a == dag.idom_s.idom[b] or b == dag.idom_t.idom[a]


def test_precedes_matches_reachability():
    # the pruned forward search against a plain search over every arc
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(4, 12)
        m = rng.randint(n - 1, min(24, n * (n - 1) // 2))
        g = random_graph(n, m, 3, rng.choice([0.0, 0.3, 0.6]), seed=rng.randrange(1 << 20))
        s, t = rng.sample(range(n), 2)
        dag = structures(g, s, t)[4]
        for a in range(dag.count):
            seen = set()
            stack = [a]
            while stack:
                for b, _, _, _ in dag.succ[stack.pop()]:
                    if b not in seen:
                        seen.add(b)
                        stack.append(b)
            for b in range(dag.count):
                assert dag.precedes(a, b) == (b in seen)
