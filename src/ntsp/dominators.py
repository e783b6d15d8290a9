"""Immediate dominators of a rooted digraph, iteratively, near-linear time.

The semidominator construction with path compression.  Recursion is avoided
throughout; the inputs can have a hundred thousand vertices without touching
the interpreter stack limit.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class UnreachableVertexError(ValueError):
    pass


@dataclass
class DomTree:
    """Dominator tree plus preorder intervals for ancestor queries.

    The same type serves the core (rooted at s over the arcs, or at t over
    the reversed arcs) and the cluster DAG.  idom[root] is -1, as is idom of
    any vertex outside the analyzed set.
    """

    root: int
    idom: list[int]
    tin: list[int] = field(repr=False)
    tout: list[int] = field(repr=False)

    def dominates(self, a: int, b: int) -> bool:
        """Every path from the root to b passes through a (a == b counts)."""
        return self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a]

    def strictly_dominates(self, a: int, b: int) -> bool:
        return a != b and self.dominates(a, b)


def immediate_dominators(
    n: int,
    succ: list[list[int]] | tuple,
    root: int,
    active: list[int],
) -> DomTree:
    """Dominator tree of the digraph given by succ, rooted at root.

    Every vertex in active must be reachable from root; anything else is a
    structural inconsistency upstream and raises UnreachableVertexError.
    """
    dfnum = [-1] * n
    vertex: list[int] = []
    parent = [-1] * n
    stack: list[tuple[int, int]] = [(root, -1)]
    while stack:
        v, p = stack.pop()
        if dfnum[v] != -1:
            continue
        dfnum[v] = len(vertex)
        vertex.append(v)
        parent[v] = p
        # reversed so the smallest successor is explored first
        for nb in reversed(succ[v]):
            if dfnum[nb] == -1:
                stack.append((nb, v))

    for v in active:
        if dfnum[v] == -1:
            raise UnreachableVertexError(f"vertex {v} unreachable from {root}")

    preds: list[list[int]] = [[] for _ in range(n)]
    for v in vertex:
        for nb in succ[v]:
            if dfnum[nb] != -1:
                preds[nb].append(v)

    semi = dfnum[:]
    ancestor = [-1] * n
    best = list(range(n))
    idom = [-1] * n
    samedom = [-1] * n
    bucket: dict[int, list[int]] = {}

    def compress_eval(v: int) -> int:
        # vertex on the compressed-forest path from v with the lowest semi
        if ancestor[v] == -1:
            return v
        orig = v
        trail = []
        while ancestor[ancestor[v]] != -1:
            trail.append(v)
            v = ancestor[v]
        for u in reversed(trail):
            if semi[best[ancestor[u]]] < semi[best[u]]:
                best[u] = best[ancestor[u]]
            ancestor[u] = ancestor[v]
        return best[orig]

    for i in range(len(vertex) - 1, 0, -1):
        v = vertex[i]
        p = parent[v]
        s = p
        for u in preds[v]:
            if dfnum[u] <= dfnum[v]:
                cand = u
            else:
                cand = vertex[semi[compress_eval(u)]]
            if dfnum[cand] < dfnum[s]:
                s = cand
        semi[v] = dfnum[s]
        bucket.setdefault(s, []).append(v)
        ancestor[v] = p
        for w in bucket.pop(p, ()):
            y = compress_eval(w)
            if semi[y] == semi[w]:
                idom[w] = p
            else:
                samedom[w] = y
    for i in range(1, len(vertex)):
        v = vertex[i]
        if samedom[v] != -1:
            idom[v] = idom[samedom[v]]

    # preorder intervals over the dominator tree for O(1) ancestor tests
    children: list[list[int]] = [[] for _ in range(n)]
    for v in vertex:
        if idom[v] != -1:
            children[idom[v]].append(v)
    tin = [-1] * n
    tout = [-1] * n
    timer = 0
    walk: list[tuple[int, bool]] = [(root, False)]
    while walk:
        v, leaving = walk.pop()
        if leaving:
            tout[v] = timer
            timer += 1
            continue
        tin[v] = timer
        timer += 1
        walk.append((v, True))
        for c in reversed(children[v]):
            walk.append((c, False))
    return DomTree(root=root, idom=idom, tin=tin, tout=tout)


def core_dominator_trees(spdag) -> tuple[DomTree, DomTree]:
    """Dominators from s, and from t over the reversed arcs."""
    active = spdag.core_vertices()
    # only core vertices have arcs; the rest share one empty row
    succ: list = [()] * spdag.n
    pred: list = [()] * spdag.n
    for v in active:
        succ[v] = [nb for nb, _ in spdag.succ_all[v]]
        pred[v] = [nb for nb, _ in spdag.pred_all[v]]
    ts = immediate_dominators(spdag.n, succ, spdag.source, active)
    tt = immediate_dominators(spdag.n, pred, spdag.target, active)
    return ts, tt
