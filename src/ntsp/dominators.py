"""Immediate dominators of a rooted digraph, iteratively, near-linear time.

The solver's one routine is dag_dominators, for the acyclic cluster DAG:
idom(v) is the nearest common ancestor, in the tree built so far, of v's
predecessors.  Semi-NCA feeds it v's DFS parent and semidominator, which span
a DAG with the same dominators; it builds the core's trees, which only the
tests read.  Recursion is avoided throughout; the inputs can have a hundred
thousand vertices without touching the interpreter stack limit.
"""
from __future__ import annotations

from dataclasses import dataclass, field


class UnreachableVertexError(RuntimeError):
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
    succ: list | tuple,
    pred: list | tuple,
    root: int,
    active: list[int],
) -> DomTree:
    """Dominator tree of the digraph given by succ (pred its reverse), rooted
    at root, by semi-NCA (Georgiadis, Tarjan and Werneck, 2006).

    Rows list (neighbour, weight) pairs sorted by neighbour, the SpDag row
    format, so the core's rows are read as they are; weights are ignored.

    One pass back over the DFS preorder finds semidominators with simple
    path compression; then idom(v) is the nearest common ancestor of
    parent(v) and sdom(v) in the tree built so far.  Every vertex in active
    must be reachable from root; anything else is a structural
    inconsistency upstream and raises UnreachableVertexError.
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
        for nb, _ in reversed(succ[v]):
            if dfnum[nb] == -1:
                stack.append((nb, v))

    for v in active:
        if dfnum[v] == -1:
            raise UnreachableVertexError(f"vertex {v} unreachable from {root}")

    semi = dfnum[:]
    ancestor = [-1] * n
    best = list(range(n))

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

    ups: list = [()] * n
    for i in range(len(vertex) - 1, 0, -1):
        v = vertex[i]
        p = parent[v]
        s = p
        for u, _ in pred[v]:
            if dfnum[u] == -1:
                continue  # unreachable from root
            if dfnum[u] <= dfnum[v]:
                cand = u
            else:
                cand = vertex[semi[compress_eval(u)]]
            if dfnum[cand] < dfnum[s]:
                s = cand
        semi[v] = dfnum[s]
        ancestor[v] = p
        ups[v] = (p, s)
    return dag_dominators(n, ups, vertex, root)


def dag_dominators(count: int, ups: list | tuple, order: list[int], root: int) -> DomTree:
    """Dominator tree of an acyclic digraph, in one pass over order.

    order lists the nodes so that every arc runs forward in it; ups[v]
    lists v's predecessors.  In a DAG, idom(v) is the nearest common
    ancestor, in the tree built so far, of v's predecessors (Cooper, Harvey
    and Kennedy).  Each node keeps one skew-binary jump pointer (Myers), so
    an ancestor lookup takes O(log count) steps.  A node other than root
    with no way in raises UnreachableVertexError; root's own arcs in would
    come from such nodes, which sit before it in order.
    """
    idom = [-1] * count
    depth = [-1] * count
    jump = [-1] * count

    def nca(a: int, b: int) -> int:
        if depth[a] < depth[b]:
            a, b = b, a
        d = depth[b]
        while depth[a] > d:
            a = jump[a] if depth[jump[a]] >= d else idom[a]
        while a != b:
            # at one depth the two jump targets share a depth too; when
            # they differ, the common ancestor lies above both
            if jump[a] != jump[b]:
                a, b = jump[a], jump[b]
            else:
                a, b = idom[a], idom[b]
        return a

    for v in order:
        if v == root:
            depth[v], jump[v] = 0, v
            continue
        nodes = ups[v]
        if not nodes:
            raise UnreachableVertexError(f"vertex {v} unreachable from {root}")
        p = nodes[0]
        for u in nodes:
            if u != p:
                p = nca(p, u)
        idom[v], depth[v] = p, depth[p] + 1
        jp = jump[p]
        jump[v] = jump[jp] if depth[p] - depth[jp] == depth[jp] - depth[jump[jp]] else p
    return _interval_tree(count, root, idom, order)


def _interval_tree(n: int, root: int, idom: list[int], nodes: list[int]) -> DomTree:
    """Package idom with preorder intervals over the dominator tree, for
    O(1) ancestor tests.

    nodes lists the tree's nodes, each after its idom.  One pass back over
    them sums the subtree sizes; one pass forward gives each node the next
    free slot inside its parent's interval.
    """
    size = [1] * n
    for v in reversed(nodes):
        if v != root:
            size[idom[v]] += size[v]
    tin = [-1] * n
    tout = [-1] * n
    tin[root] = 0
    free = [0] * n  # next unassigned preorder number under each node
    for v in nodes:
        if v != root:
            tin[v] = free[idom[v]]
            free[idom[v]] += size[v]
        free[v] = tin[v] + 1
        tout[v] = tin[v] + size[v] - 1
    return DomTree(root=root, idom=idom, tin=tin, tout=tout)


def core_dominator_trees(spdag) -> tuple[DomTree, DomTree]:
    """Dominators from s, and from t over the reversed arcs."""
    active = spdag.core_vertices()
    succ, pred = spdag.succ_all, spdag.pred_all
    ts = immediate_dominators(spdag.n, succ, pred, spdag.source, active)
    tt = immediate_dominators(spdag.n, pred, succ, spdag.target, active)
    return ts, tt
