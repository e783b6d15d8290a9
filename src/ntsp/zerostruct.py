"""Clusters of zero-weight edges and the contracted DAG above them.

Zero edges that realize a dominator relation are severed and oriented; what
survives groups into clusters whose members are mutually reachable without
ever crossing one of their own dominators.  Contracting each cluster to a
single node yields a DAG whose directed reachability is the precedence order
the backward-pair search runs on.  Nothing here stores that order for all
pairs: band_walk is the one search over the arcs, kept to a band of levels,
and both a precedence test and the zigzag layer's walks are made of it.
"""
from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

from .dominators import DomTree, immediate_dominators
from .spdag import SpDag
from .sssp import bfs_path


class ClusterCycleError(RuntimeError):
    """The contracted digraph has a cycle, which signals an upstream bug."""


@dataclass(frozen=True)
class ZeroPartition:
    """Partition of core vertices into zero clusters.

    comp[v] is -1 off the core; cluster ids are dense, in order of smallest
    member.  severed holds the oriented zero edges that realized a dominator
    relation, at vertex level; surviving_adj is the intra-cluster zero
    adjacency left over.
    """

    comp: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    comp_level: tuple[int, ...]
    severed: tuple[tuple[int, int], ...]
    surviving_adj: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.members)

    def representative(self, c: int) -> int:
        return self.members[c][0]


def zero_clusters(spdag: SpDag, ts: DomTree, tt: DomTree) -> ZeroPartition:
    """Sever dominator zero edges, orient them, and group the remainder."""
    n = spdag.n
    surviving: list[list[int]] = [[] for _ in range(n)]
    severed: list[tuple[int, int]] = []
    for u, v in spdag.zero_edges:
        orientations = set()
        if ts.idom[v] == u:
            orientations.add((u, v))
        if ts.idom[u] == v:
            orientations.add((v, u))
        if tt.idom[u] == v:
            orientations.add((u, v))
        if tt.idom[v] == u:
            orientations.add((v, u))
        if not orientations:
            surviving[u].append(v)
            surviving[v].append(u)
            continue
        assert len(orientations) == 1, f"conflicting orientation for zero edge {(u, v)}"
        severed.append(orientations.pop())

    comp = [-1] * n
    members: list[tuple[int, ...]] = []
    comp_level: list[int] = []
    for v in range(n):
        if not spdag.in_core[v] or comp[v] != -1:
            continue
        cid = len(members)
        comp[v] = cid
        group = [v]
        stack = [v]
        while stack:
            x = stack.pop()
            for y in surviving[x]:
                if comp[y] == -1:
                    comp[y] = cid
                    group.append(y)
                    stack.append(y)
        group.sort()
        members.append(tuple(group))
        comp_level.append(spdag.level[v])
        assert all(spdag.level[x] == comp_level[cid] for x in group)

    # s and t never absorb neighbors: a zero edge at either endpoint is
    # itself a complete path from that endpoint, forcing the dominator
    # relation that severs it.
    assert members[comp[spdag.source]] == (spdag.source,)
    assert members[comp[spdag.target]] == (spdag.target,)
    for u, v in severed:
        assert comp[u] != comp[v], "severed zero edge inside one cluster"
    return ZeroPartition(
        comp=tuple(comp),
        members=tuple(members),
        comp_level=tuple(comp_level),
        severed=tuple(sorted(severed)),
        surviving_adj=tuple(tuple(sorted(a)) for a in surviving),
    )


def zero_path_within(partition: ZeroPartition, a: int, b: int) -> list[int]:
    """Deterministic simple path from a to b inside their shared cluster."""
    assert partition.comp[a] == partition.comp[b] != -1
    path = bfs_path(a, b, partition.surviving_adj.__getitem__)
    assert path is not None, "cluster members are zero-connected"
    return path


@dataclass(frozen=True)
class ClusterDag:
    """Contraction of the core onto zero clusters.

    Arcs carry (head, weight, witness_u, witness_v) where the witness is a
    core edge joining the two clusters; zero arcs come from severed edges.
    topo lists the clusters in topological order (smallest id first among
    the ready ones) and topo_index is its inverse.
    """

    count: int
    succ: tuple[tuple[tuple[int, int, int, int], ...], ...]
    pred: tuple[tuple[tuple[int, int, int, int], ...], ...]
    topo: tuple[int, ...]
    topo_index: tuple[int, ...]
    idom_s: DomTree
    idom_t: DomTree
    source_comp: int
    target_comp: int
    comp_level: tuple[int, ...]

    def precedes(self, a: int, b: int) -> bool:
        """Strictly before: a reaches b along arcs and differs from it.

        A forward band_walk from a over the levels [L(a), L(b)], stopped
        once it meets b; no path from a to b leaves that band.
        """
        if a == b:
            return False
        return b in band_walk(self, a, self.comp_level[a], self.comp_level[b], True)


def band_walk(
    dag: ClusterDag, start: int, lo: int, hi: int, forward: bool, avoid: int = -1
) -> Iterator[int]:
    """Clusters reached from start along the arcs, or against them, as met.

    The walk enters only clusters whose level lies in [lo, hi] and never
    enters avoid; start itself is not listed.  Levels never fall along an
    arc, so a walk can only leave the band on one side.
    """
    arcs, level = (dag.succ if forward else dag.pred), dag.comp_level
    seen = {start, avoid}
    stack = [start]
    while stack:
        for c, _, _, _ in arcs[stack.pop()]:
            if c not in seen and lo <= level[c] <= hi:
                seen.add(c)
                yield c
                stack.append(c)


def build_cluster_dag(spdag: SpDag, partition: ZeroPartition, ts: DomTree, tt: DomTree) -> ClusterDag:
    comp = partition.comp
    count = partition.count
    arcs: dict[tuple[int, int], tuple[int, int, int]] = {}
    for u, v, w in spdag.arcs:
        a, b = comp[u], comp[v]
        key = (a, b)
        cur = arcs.get(key)
        if cur is None:
            arcs[key] = (w, u, v)
        else:
            assert cur[0] == w, "parallel cluster arcs must agree in weight"
            arcs[key] = min(cur, (w, u, v))
    for u, v in partition.severed:
        a, b = comp[u], comp[v]
        key = (a, b)
        cur = arcs.get(key)
        if cur is None:
            arcs[key] = (0, u, v)
        else:
            assert cur[0] == 0
            arcs[key] = min(cur, (0, u, v))

    succ: list[list[tuple[int, int, int, int]]] = [[] for _ in range(count)]
    pred: list[list[tuple[int, int, int, int]]] = [[] for _ in range(count)]
    indeg = [0] * count
    for (a, b), (w, u, v) in arcs.items():
        succ[a].append((b, w, u, v))
        pred[b].append((a, w, u, v))
        indeg[b] += 1
    for lst in succ:
        lst.sort()
    for lst in pred:
        lst.sort()

    heap = [c for c in range(count) if indeg[c] == 0]
    heapq.heapify(heap)
    topo: list[int] = []
    while heap:
        c = heapq.heappop(heap)
        topo.append(c)
        for b, _, _, _ in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)
    if len(topo) != count:
        raise ClusterCycleError("cluster contraction is cyclic")
    topo_index = [0] * count
    for i, c in enumerate(topo):
        topo_index[c] = i

    active = list(range(count))
    succ_ids = [[b for b, _, _, _ in succ[c]] for c in range(count)]
    pred_ids = [[a for a, _, _, _ in pred[c]] for c in range(count)]
    sc, tc = comp[spdag.source], comp[spdag.target]
    idom_s = immediate_dominators(count, succ_ids, sc, active, "from_s", "clusters")
    idom_t = immediate_dominators(count, pred_ids, tc, active, "to_t", "clusters")
    return ClusterDag(
        count=count,
        succ=tuple(tuple(x) for x in succ),
        pred=tuple(tuple(x) for x in pred),
        topo=tuple(topo),
        topo_index=tuple(topo_index),
        idom_s=idom_s,
        idom_t=idom_t,
        source_comp=sc,
        target_comp=tc,
        comp_level=partition.comp_level,
    )


def backward_feasible(
    x: int,
    y: int,
    partition: ZeroPartition,
    dag: ClusterDag,
    ts: DomTree,
    tt: DomTree,
) -> bool:
    """Necessary condition for (x, y) to close a backward detour in the core.

    The cluster of y must sit strictly between x's immediate start-side
    dominator and x's cluster, and x's cluster strictly before y's immediate
    target-side dominator.
    """
    gate_in = ts.idom[x]
    gate_out = tt.idom[y]
    if gate_in == -1 or gate_out == -1:
        return False
    comp = partition.comp
    cx, cy = comp[x], comp[y]
    return (
        dag.precedes(comp[gate_in], cy)
        and dag.precedes(cy, cx)
        and dag.precedes(cx, comp[gate_out])
    )
