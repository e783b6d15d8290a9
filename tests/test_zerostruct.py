"""Zero clusters and the contracted cluster DAG."""
from __future__ import annotations

import dataclasses
import random

import pytest

from graphcases import named_graph, zgrid
from ntsp.dominators import core_dominator_trees
from ntsp.graph import build_graph, random_graph
from ntsp.oracle import backward_feasible, cluster_topo_order, oracle_zero_clusters, precedes
from ntsp.spdag import build_core
from ntsp.sssp import distance_labels
from ntsp.zerostruct import (
    ClusterCycleError,
    ZeroPartition,
    build_cluster_dag,
    zero_clusters,
    zero_path_within,
)


def structures(g, s, t):
    spdag = build_core(g, distance_labels(g, s, t))
    ts, tt = core_dominator_trees(spdag)
    partition = zero_clusters(spdag)
    dag = build_cluster_dag(spdag, partition)
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
    assert precedes(dag, 0, 2)
    assert not precedes(dag, 2, 1)
    assert not precedes(dag, 1, 1)


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
        # a sorted row for each vertex left with an unsevered zero edge
        cut = {frozenset(e) for e in partition.severed}
        rows: dict[int, list[int]] = {}
        for u, v in spdag.zero_edges:
            if frozenset((u, v)) not in cut:
                rows.setdefault(u, []).append(v)
                rows.setdefault(v, []).append(u)
        assert partition.surviving_adj == {v: sorted(row) for v, row in rows.items()}


def tree_rule_partition(spdag):
    """The severed edges and clusters of the core dominator tree rule: a zero
    edge is cut, oriented from dominator to dominated, when one end is the
    other's immediate dominator from s or from t."""
    ts, tt = core_dominator_trees(spdag)
    severed = []
    parent = {v: v for v in spdag.core_vertices()}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in spdag.zero_edges:
        cut = {(u, v)} if ts.idom[v] == u or tt.idom[u] == v else set()
        cut |= {(v, u)} if ts.idom[u] == v or tt.idom[v] == u else set()
        assert len(cut) <= 1
        if cut:
            severed.append(cut.pop())
        else:
            parent[find(u)] = find(v)
    groups = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    members = tuple(sorted(tuple(sorted(grp)) for grp in groups.values()))
    return tuple(sorted(severed)), members


def test_block_tops_sever_like_the_core_trees():
    # the severing against the dominator-tree rule past the exhaustive
    # corpus's n <= 9; a failure here is a solver bug, so the seed stays fixed
    cases = []
    for k in range(4, 13):
        for p in (0.2, 0.4, 0.6):
            cases.append((zgrid(k, p, seed=k), 0, k * k - 1, ("zgrid", k, p)))
    rng = random.Random(20261020)
    for _ in range(1000):
        n = rng.randint(10, 60)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.2, 0.4, 0.6, 0.8, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        cases.append((random_graph(n, m, 3, zp, seed), s, t, (n, m, zp, seed, s, t)))
    checked = severed = 0
    for g, s, t, label in cases:
        spdag = build_core(g, distance_labels(g, s, t))
        partition = zero_clusters(spdag)
        assert (partition.severed, partition.members) == tree_rule_partition(spdag), label
        checked += len(spdag.zero_edges)
        severed += len(partition.severed)
    # 31,491 zero edges, 5,901 of them severed
    assert checked >= 20000 and severed >= 2000, (checked, severed)


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
        topo_index = {c: i for i, c in enumerate(cluster_topo_order(dag))}
        assert len(topo_index) == dag.count
        for a in range(dag.count):
            for b, w, u, v in dag.succ[a]:
                # topological order certifies acyclicity
                assert topo_index[a] < topo_index[b]
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
                assert precedes(dag, a, b) == (b in seen)


def test_cyclic_contraction_raises():
    # two singleton clusters joined by an arc each way: a contraction the
    # solver never builds, so only the cycle check stands in the way
    spdag, _, _, _, _ = structures(*named_graph("chain"))
    spdag = dataclasses.replace(spdag, arcs=((0, 1, 1), (1, 0, 1)), source=0, target=1)
    partition = ZeroPartition(
        comp=(0, 1, -1), members=((0,), (1,)), comp_level=(0, 1),
        severed=(), surviving_adj={},
    )
    with pytest.raises(ClusterCycleError):
        build_cluster_dag(spdag, partition)
