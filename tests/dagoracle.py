"""References that read the cluster DAG: a topological order, precedence,
the backward feasibility test and an all-pairs open-pair scan.

Like ntsp.oracle they are naive on purpose, and only the tests read them,
so they live here rather than in the package every query imports.
"""
from __future__ import annotations

import heapq

from ntsp.dominators import DomTree
from ntsp.zerostruct import ClusterDag, ZeroPartition, band_walk
from ntsp.zigzag import BackwardCandidate, CoreContext


def cluster_topo_order(dag: ClusterDag) -> list[int]:
    """Clusters in topological order, smallest id first among the ready ones.

    Shorter than dag.count exactly when the arcs hold a cycle.
    """
    indeg = [len(p) for p in dag.pred]
    heap = [c for c in range(dag.count) if indeg[c] == 0]
    order: list[int] = []
    while heap:
        c = heapq.heappop(heap)
        order.append(c)
        for b in dag.succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(heap, b)
    return order


def precedes(dag: ClusterDag, a: int, b: int) -> bool:
    """Strictly before: a reaches b along the cluster arcs and differs from
    it.  No such path leaves the levels [L(a), L(b)], which band_walk keeps."""
    if a == b:
        return False
    return b in band_walk(dag, a, dag.comp_level[a], dag.comp_level[b], True)


def backward_feasible(
    x: int, y: int, partition: ZeroPartition | None, dag: ClusterDag, ts: DomTree, tt: DomTree
) -> bool:
    """Necessary condition for (x, y) to close a backward detour in the core.

    The cluster of y must sit strictly between x's immediate start-side
    dominator (in ts, a core tree) and x's cluster, and x's cluster strictly
    before y's immediate target-side dominator (in tt).  With no partition
    (a zero-free core) each vertex is its own cluster."""
    gate_in = ts.idom[x]
    gate_out = tt.idom[y]
    if gate_in == -1 or gate_out == -1:
        return False
    comp = range(dag.count) if partition is None else partition.comp
    cx, cy = comp[x], comp[y]
    return (
        precedes(dag, comp[gate_in], cy)
        and precedes(dag, cy, cx)
        and precedes(dag, cx, comp[gate_out])
    )


def oracle_open_pair(ctx: CoreContext) -> BackwardCandidate | None:
    """Smallest (delta, comp_x, comp_y) open pair by scanning all cluster pairs.

    The pair must descend, neither cluster may dominate the other on its
    side, and idom_s(cx) < cy < cx < idom_t(cy) must hold, where < is
    reachability along cluster arcs, read off bitsets built here.
    """
    dag = ctx.dag
    reach = [0] * dag.count
    for c in reversed(cluster_topo_order(dag)):
        bits = 1 << c
        for b in dag.succ[c]:
            bits |= reach[b]
        reach[c] = bits

    def before(a: int, b: int) -> bool:
        return a != b and (reach[a] >> b) & 1 == 1

    best: tuple[int, int, int] | None = None
    for cx in range(dag.count):
        gate_in = dag.idom_s.idom[cx]
        if gate_in == -1:
            continue
        for cy in range(dag.count):
            delta = dag.comp_level[cx] - dag.comp_level[cy]
            if delta <= 0:
                continue
            gate_out = dag.idom_t.idom[cy]
            if gate_out == -1:
                continue
            if dag.idom_s.dominates(cy, cx) or dag.idom_t.dominates(cx, cy):
                continue
            if not (before(gate_in, cy) and before(cy, cx) and before(cx, gate_out)):
                continue
            key = (delta, cx, cy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return BackwardCandidate("open", comp_x=best[1], comp_y=best[2], delta=best[0])
